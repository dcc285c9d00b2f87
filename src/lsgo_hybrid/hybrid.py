"""Driver that alternates the harmony and differential-evolution phases.

One outer cycle = a full harmony schedule followed by DE sweeps, both
working on the same candidate pool. Budgets are exact: with the defaults
(200-member pool, 10000 harmony iterations, 100 DE sweeps, 100 cycles) a
run consumes 100 * (10000 + 100*200) = 3,000,000 evaluations, with the
initial pool evaluation charged against the first cycle's harmony share.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .benchmarks import BenchmarkInstance, make_instance
from .de import DeParams, de_run
from .harmony import HarmonyParams, harmony_run
from .population import Candidate, Population


@dataclass
class HybridConfig:
    population_size: int = 200
    outer_iterations: int = 100
    harmony: HarmonyParams = field(default_factory=HarmonyParams)
    de: DeParams = field(default_factory=DeParams)
    checkpoints: tuple[int, ...] = (4, 20, 100)
    seed: int = 0

    def validate(self):
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be at least 1")
        self.harmony.validate()
        self.de.validate()
        cps = tuple(self.checkpoints)
        if sorted(set(cps)) != list(cps):
            raise ValueError("checkpoints must be strictly increasing")
        if cps and (cps[0] < 1 or cps[-1] > self.outer_iterations):
            raise ValueError("checkpoints must lie in 1..outer_iterations")
        if self.per_cycle < self.population_size:
            raise ValueError(
                "first cycle cannot absorb the initial pool evaluation; "
                "raise the harmony or DE iteration count"
            )

    @property
    def per_cycle(self) -> int:
        """Evaluations of one outer cycle: the harmony schedule plus the DE sweeps."""
        return self.harmony.max_iterations + self.de.max_iterations * self.population_size


def fe_budget(config: HybridConfig) -> int:
    """Total function evaluations a run will consume, exactly."""
    return config.outer_iterations * config.per_cycle


def scaled(config: HybridConfig, budget_scale: float) -> HybridConfig:
    """Uniformly scale both phases' iteration counts; a positive count is
    floored at 1 and a zero count, a phase switched off, stays 0."""
    if budget_scale <= 0:
        raise ValueError("budget_scale must be positive")

    def scale(n: int) -> int:
        return max(1, round(n * budget_scale)) if n > 0 else 0

    return replace(
        config,
        harmony=replace(config.harmony, max_iterations=scale(config.harmony.max_iterations)),
        de=replace(config.de, max_iterations=scale(config.de.max_iterations)),
    )


@dataclass
class RunResult:
    function_id: str
    dimension: int
    seed: int
    best_at_checkpoint: dict[int, float]
    final_best: Candidate
    fe_consumed: int
    wall_time_s: float
    initial_best: float
    trace: list[float]


@dataclass
class BatchSummary:
    function_id: str
    dimension: int
    n_runs: int
    best: float
    median: float
    worst: float
    mean: float
    stddev: float


def _rng_for(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, int(run_index)])
    )


def run(instance: BenchmarkInstance, config: HybridConfig,
        run_index: int = 0) -> RunResult:
    """One full optimisation run; deterministic in (config.seed, run_index)."""
    config.validate()
    t0 = time.perf_counter()
    rng = _rng_for(config.seed, run_index)

    pool = Population.random_uniform(
        config.population_size, instance.dimension, instance.bounds, rng, instance,
    )
    spent = config.population_size
    initial_best = pool.best_fitness
    trace = [initial_best]

    harmony_share = config.harmony.max_iterations
    de_share = config.per_cycle - harmony_share
    checkpoint_set = set(config.checkpoints)
    best_at_checkpoint: dict[int, float] = {}

    for k in range(1, config.outer_iterations + 1):
        first = 1
        de_budget = de_share
        if k == 1:
            # the pool evaluation is charged against this cycle: skip that
            # many slots of the harmony schedule (and of the DE budget if
            # the pool is larger than the whole harmony share)
            taken = min(config.population_size, harmony_share)
            first = taken + 1
            de_budget -= config.population_size - taken
        spent += harmony_run(pool, config.harmony, instance, rng,
                             iteration_window=(first, harmony_share))
        trace.append(pool.best_fitness)
        spent += de_run(pool, config.de, instance, rng, max_candidates=de_budget)
        trace.append(pool.best_fitness)
        if k in checkpoint_set:
            best_at_checkpoint[k * config.per_cycle] = pool.best_fitness

    return RunResult(
        function_id=getattr(instance, "function_id", "custom"),
        dimension=instance.dimension,
        seed=run_index,
        best_at_checkpoint=best_at_checkpoint,
        final_best=pool.best(),
        fe_consumed=spent,
        wall_time_s=time.perf_counter() - t0,
        initial_best=initial_best,
        trace=trace,
    )


def final_stats(finals) -> dict[str, float]:
    """Best, median, worst, mean and stddev of final values; the median is
    the ceil(n/2)-th order statistic."""
    finals = sorted(finals)
    n = len(finals)
    if n == 0:
        raise ValueError("no results to summarise")
    return {
        "best": finals[0],
        "median": finals[(n + 1) // 2 - 1],
        "worst": finals[-1],
        "mean": sum(finals) / n,
        "stddev": float(np.std(finals, ddof=1)) if n > 1 else 0.0,
    }


def summarize(results: list[RunResult]) -> BatchSummary:
    """`final_stats` of the runs' final best values."""
    stats = final_stats(r.final_best.fitness for r in results)
    first = results[0]
    return BatchSummary(function_id=first.function_id, dimension=first.dimension,
                        n_runs=len(results), **stats)


def _batch_worker(args) -> RunResult:
    instance, config, run_index = args
    return run(instance.fresh_copy(), config, run_index)


def run_batch(instance_spec, config: HybridConfig, n_runs: int,
              base_seed: int | None = None, workers: int = 1):
    """Independent runs on one instance; returns (results, summary).

    `instance_spec` is (function_id, dimension, instance_seed) or an
    already-built instance. Run i draws its stream from (master seed, i),
    so the batch is deterministic for any worker count.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if isinstance(instance_spec, BenchmarkInstance):
        proto = instance_spec
    else:
        fid, dim, iseed = instance_spec
        proto = make_instance(fid, dim, iseed)
    cfg = config if base_seed is None else replace(config, seed=base_seed)
    tasks = [(proto, cfg, i) for i in range(n_runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_worker, tasks))
    else:
        results = [_batch_worker(t) for t in tasks]
    return results, summarize(results)
