"""Benchmark of lsgo-hybrid: end-to-end workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serial-d50-sep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
measures the per-layer metrics (direct timed calls plus a traced run of the
workload). The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the full record,
with the environment, goes to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

UNITS = {
    "evals_per_s": "eval/s", "setup_s": "s", "peak_rss_mb": "MB",
    "final_best_log10": "log10",
    "batch.pickle_mb_per_task": "MB", "batch.parallel_eff": "ratio",
    "batch.overhead_s": "s", "hybrid.trace_overhead_frac": "ratio",
    "projected_table_h": "h", "de.oob_coords_per_trial": "count",
}
_UNIT_BY_PART = {"_us": "us", "_ms": "ms", "_s": "s", "share": "ratio", "ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for part in name.split("."):
        for suffix, unit in _UNIT_BY_PART.items():
            if part.endswith(suffix):
                return unit
    raise KeyError(name)


def _import_package():
    """Put the checkout's own src/ first on the path, or stop."""
    pkg = SRC / "lsgo_hybrid"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from a checkout of lsgo-hybrid")
    sys.path.insert(0, str(SRC))
    import lsgo_hybrid

    if Path(lsgo_hybrid.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported lsgo_hybrid from {lsgo_hybrid.__file__}, "
                 f"not from {pkg}")


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(bench, seconds: float) -> dict[str, float]:
    import workloads

    cycles, = bench.timed(seconds, bench.step())
    bench.rerun_alone()
    return {
        "evals_per_s": workloads.evals_per_s(cycles),
        "setup_s": bench.setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "final_best_log10": workloads.final_best_log10(bench, cycles),
    }


def per_layer(bench, seconds: float, seed: int, tiny: bool) -> tuple[dict, list]:
    import layers
    import numpy as np
    import tracing
    import workloads

    tracer = tracing.Tracer()
    exports: list = []
    plain, traced = bench.timed(seconds, bench.step(), bench.step(tracer, exports))
    bench.rerun_alone()
    ex = tracing.merge(exports if bench.workload.batch else [tracer.export()])
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{bench.workload.name}.npz", **ex)

    metrics = layers.measure(seed, reps=20 if tiny else 200)
    metrics["projected_table_h"] = layers.projected_table_h(metrics)
    for category, share in tracing.self_shares(ex).items():
        metrics[f"hybrid.self_share.{category}"] = share
    plain_eps = workloads.evals_per_s(plain)
    metrics["hybrid.trace_overhead_frac"] = (
        (plain_eps - workloads.evals_per_s(traced)) / plain_eps)
    metrics["de.oob_coords_per_trial"] = float(ex["oob_coords"]) / max(1, int(ex["trials"]))
    metrics["population.accept_ratio.harmony"] = tracing.accept_ratio(ex, "harmony_run")
    metrics["population.accept_ratio.de"] = tracing.accept_ratio(ex, "de_run")
    metrics.update(workloads.batch_layers(seed, tiny, bench.checks))
    return metrics, layers.cross_check(metrics)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    import envinfo
    import workloads

    t_start = time.perf_counter()
    bench = workloads.Bench(workloads.WORKLOADS[workload], seed, tiny)
    notes = []
    if trace:
        metrics, notes = per_layer(bench, seconds, seed, tiny)
    else:
        metrics = end_to_end(bench, seconds)
    env = envinfo.environment(ROOT, bench.workers)
    checks = bench.checks
    failed_frac = checks.failed / checks.attempted

    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}"
          f"{' tiny' if tiny else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:.6g} {unit_of(name)}")
    print(f"  {'failed_frac':40s} {failed_frac:.6g} ratio "
          f"({checks.failed} of {checks.attempted} runs)")
    for problem in checks.problems:
        print("  FAILED " + problem)
    if notes:
        print("cross-check against the ROADMAP baseline:")
        print("\n".join(notes))
    print(f"total {time.perf_counter() - t_start:.1f} s")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), tiny=tiny, failed_frac=failed_frac,
                  problems=checks.problems, env=env)
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload, untraced and traced, at a tiny size, in fresh processes.

    Checks each run's result line against BENCHMARK.json: every named
    metric present, finite, with its unit; the self-time shares summing to
    one; and no run failing a check.
    Covers batch-d1000-dense too, which BENCHMARK.json leaves out.
    """
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300, check=False)
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{tag}: correctness checks failed:\n{proc.stdout}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    errors.append(f"{tag}: {m['name']} missing")
                elif not math.isfinite(got["value"]) or got["unit"] != m["unit"]:
                    errors.append(f"{tag}: {m['name']} = {got}")
            shares = [v["value"] for k, v in result["metrics"].items()
                      if k.startswith("hybrid.self_share.")]
            if shares and abs(sum(shares) - 1.0) > 1e-9:
                errors.append(f"{tag}: self shares sum to {sum(shares)}")
            print(f"smoke {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} runs")
    for e in errors:
        print("SMOKE ERROR " + e, file=sys.stderr)
    return 1 if errors else 0


def main(argv=None) -> int:
    _import_package()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny pools and budgets (used by --smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at a tiny size and check the output")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
