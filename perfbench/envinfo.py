"""The environment a benchmark result was measured in."""

from __future__ import annotations

import ctypes
import glob
import multiprocessing
import os
import platform
from pathlib import Path

import numpy as np

import lsgo_hybrid

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name", "unknown"),
                "version": deps.get("version", "unknown")}
    except (KeyError, TypeError, ValueError):
        pass
    return info


def _openblas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, asked of the library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        packed = (root / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workers: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "start_method": multiprocessing.get_start_method(),
        "batch_workers": workers,
        "package_version": lsgo_hybrid.__version__,
        "git_commit": _git_commit(root),
    }
