"""Driver that alternates the harmony and differential-evolution phases.

One outer cycle = a full harmony schedule followed by DE sweeps, both
working on the same candidate pool. Budgets are exact: with the defaults
(200-member pool, 10000 harmony iterations, 100 DE sweeps, 100 cycles) a
run consumes 100 * (10000 + 100*200) = 3,000,000 evaluations, with the
initial pool evaluation charged against the first cycle's harmony share.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .benchmarks.instance import BenchmarkInstance, _seed_sequence
from .de import DeParams, de_run
from .harmony import HarmonyParams, harmony_run
from .population import Candidate, Population


@dataclass
class HybridConfig:
    """Settings of one run. `checkpoints` names the cycles whose best values a
    results table reports; the run itself records every cycle in its trace."""

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
    if not 0 < budget_scale < math.inf:
        raise ValueError(f"budget_scale must be positive and finite, got {budget_scale!r}")

    def scale(n: int) -> int:
        if n > 0 and not math.isfinite(n * budget_scale):
            raise ValueError(f"budget_scale {budget_scale!r} overflows "
                             f"the iteration count {n}")
        return max(1, round(n * budget_scale)) if n > 0 else 0

    return replace(
        config,
        harmony=replace(config.harmony, max_iterations=scale(config.harmony.max_iterations)),
        de=replace(config.de, max_iterations=scale(config.de.max_iterations)),
    )


@dataclass
class RunResult:
    """One run's outcome. `seed` is the run index, which with the config's
    seed picks the run's stream. `trace[0]` is the initial pool's best value,
    and `trace[2k - 1]` and `trace[2k]` the best after cycle k's harmony and
    DE phases, so `trace[2k]` is the best after k * per_cycle evaluations."""

    seed: int
    final_best: Candidate
    fe_consumed: int
    wall_time_s: float
    trace: list[float]


def run(instance: BenchmarkInstance, config: HybridConfig,
        run_index: int = 0) -> RunResult:
    """One full optimisation run; deterministic in the integers (config.seed, run_index)."""
    config.validate()
    t0 = time.perf_counter()
    rng = np.random.default_rng(_seed_sequence(seed=config.seed, run_index=run_index))

    pool = Population.random_uniform(
        config.population_size, instance.dimension, instance.bounds, rng, instance,
    )
    spent = config.population_size
    trace = [pool.best_fitness]

    harmony_share = config.harmony.max_iterations
    de_share = config.per_cycle - harmony_share

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

    return RunResult(
        seed=run_index,
        final_best=pool.best(),
        fe_consumed=spent,
        wall_time_s=time.perf_counter() - t0,
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


def _batch_worker(args) -> RunResult:
    instance, config, run_index = args
    return run(instance.fresh_copy(), config, run_index)


def run_batch(instance: BenchmarkInstance, config: HybridConfig, n_runs: int,
              workers: int = 1):
    """Independent runs on one instance; returns (results, summary), where
    summary is the `final_stats` of the runs' final best values.

    Each run evaluates a `fresh_copy` of `instance`. Run i draws its stream
    from (config.seed, i), so the batch is deterministic for any worker count.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    tasks = [(instance, config, i) for i in range(n_runs)]
    # a forking pool starts all its workers at the first submit, so never
    # ask for more than there are runs
    workers = min(workers, n_runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_worker, tasks))
    else:
        results = [_batch_worker(t) for t in tasks]
    return results, final_stats(r.final_best.fitness for r in results)
