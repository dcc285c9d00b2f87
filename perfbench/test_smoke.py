"""Smoke test of the benchmark itself.

Runs every workload, untraced and traced, at a tiny size and checks that
each metric BENCHMARK.json names is present, finite and in its unit.
From the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_reports_every_metric():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          cwd=RUN.parent.parent, capture_output=True, text=True,
                          timeout=900, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
