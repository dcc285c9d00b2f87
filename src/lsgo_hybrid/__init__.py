"""Hybrid harmony-search / differential-evolution optimizer for
high-dimensional box-constrained minimization, with a scalable benchmark
family, a per-function parameter tuner, and a ranking pipeline.
"""

from .benchmarks import BenchmarkInstance, from_descriptor, from_json, make_instance
from .de import DeParams, de_run
from .harmony import HarmonyParams, harmony_run, hmcr_schedule
from .hybrid import (
    BatchSummary,
    HybridConfig,
    RunResult,
    fe_budget,
    run,
    run_batch,
    scaled,
    summarize,
)
from .population import Candidate, Population
from .tuning import (
    ParamVector,
    TunerConfig,
    hybrid_config_for,
    load_specialist_params,
    probe_config,
    tune,
)

__version__ = "0.6.0"

__all__ = [
    "BenchmarkInstance",
    "from_descriptor",
    "from_json",
    "make_instance",
    "DeParams",
    "de_run",
    "HarmonyParams",
    "harmony_run",
    "hmcr_schedule",
    "BatchSummary",
    "HybridConfig",
    "RunResult",
    "fe_budget",
    "run",
    "run_batch",
    "scaled",
    "summarize",
    "Candidate",
    "Population",
    "ParamVector",
    "TunerConfig",
    "hybrid_config_for",
    "load_specialist_params",
    "probe_config",
    "tune",
    "__version__",
]
