"""The benchmark workloads: closed-loop timed runs and their correctness checks.

A benchmark cycle is one `run` per instance of the workload (serial) or one
`run_batch` with one worker per CPU, as the CLI's default `--parallel 0`
(batch). Cycles repeat, each with its own master seed, until the measuring
time is up and at least the workload's `quality_cycles` have run. Every run
is checked; see `check_run` and `Checks`.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing.reduction import ForkingPickler

import numpy as np

from lsgo_hybrid import (
    DeParams,
    HarmonyParams,
    HybridConfig,
    fe_budget,
    make_instance,
    run,
    run_batch,
)

import tracing

SETUP_REPS = 5
BATCH_RUNS_PER_WORKER = 2


@dataclass(frozen=True)
class Workload:
    name: str
    functions: tuple[str, ...]
    dimension: int
    harmony: int         # harmony iterations per cycle of the hybrid
    de_sweeps: int       # DE sweeps of the whole pool per cycle of the hybrid
    outer: int           # hybrid cycles per run
    quality_cycles: int  # benchmark cycles always run; their runs give final_best_log10
    batch: bool = False

    def config(self, seed: int, tiny: bool) -> HybridConfig:
        if tiny:
            return _tiny_config(seed)
        return _config(200, self.harmony, self.de_sweeps, self.outer, seed)


def _config(pool, harmony, de_sweeps, outer, seed) -> HybridConfig:
    return HybridConfig(
        population_size=pool,
        outer_iterations=outer,
        harmony=HarmonyParams(max_iterations=harmony),
        de=DeParams(max_iterations=de_sweeps),
        checkpoints=(1, outer),
        seed=seed,
    )


def _tiny_config(seed) -> HybridConfig:
    """40 evaluations: the warm-up run, and every run under --tiny."""
    return _config(10, 10, 1, 2, seed)


# Budgets keep the paper's 200-member pool and its 1:2 harmony:DE ratio
# (10000 harmony draws to 100 sweeps of 200 per cycle of the hybrid), cut
# so one benchmark cycle takes a few seconds on a 2-core box.
WORKLOADS = {
    w.name: w for w in (
        Workload("serial-d1000-blocks", ("F4", "F8", "F13"), 1000, 100, 1, 5, 2),
        Workload("serial-d50-sep", ("F1",), 50, 500, 5, 10, 4),
        Workload("serial-d1000-dense", ("F15",), 1000, 100, 1, 5, 4),
        Workload("batch-d1000-dense", ("F15",), 1000, 100, 1, 5, 1, batch=True),
    )
}


def batch_workers() -> int:
    return os.cpu_count() or 1


def _digest(result) -> str:
    h = hashlib.sha256()
    h.update(result.final_best.x.tobytes())
    h.update(np.float64(result.final_best.fitness).tobytes())
    h.update(np.asarray(result.trace, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_run(result, config, instance) -> list[str]:
    """Problems with one run's output; empty when it is correct."""
    problems = []
    if result.fe_consumed != fe_budget(config):
        problems.append(f"fe_consumed {result.fe_consumed} != {fe_budget(config)}")
    if not np.all(np.diff(np.asarray(result.trace)) <= 0):
        problems.append("trace worsens")
    best = result.final_best
    if not (math.isfinite(best.fitness) and best.fitness > 0):
        problems.append(f"final best {best.fitness!r} is not finite and positive")
    lo, hi = instance.bounds
    if not np.all((best.x >= lo) & (best.x <= hi)):
        problems.append("final best lies outside the box")
    if instance.evaluate(best.x) != best.fitness:
        problems.append("final best does not re-evaluate to its fitness")
    return problems


@dataclass
class Cycle:
    results: list  # (key, RunResult); key = (function id, master seed, run index)
    wall_s: float

    @property
    def evals(self) -> int:
        return sum(r.fe_consumed for _, r in self.results)

    @property
    def run_wall_s(self) -> float:
        return sum(r.wall_time_s for _, r in self.results)


class Checks:
    """Correctness tally over every run a benchmark invocation makes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}

    def record(self, key, result, config, instance, label="") -> None:
        """Check one run, and that it repeats every earlier run with its key."""
        problems = check_run(result, config, instance)
        digest = _digest(result)
        if self.digests.setdefault(key, digest) != digest:
            problems.append("final best differs from an earlier run with the same seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}{label}: {p}" for p in problems)


class Bench:
    """One workload at one seed: its instances, config and timed cycles."""

    def __init__(self, workload: Workload, seed: int, tiny: bool,
                 checks: Checks | None = None):
        self.workload = workload
        self.seed = seed
        self.config = workload.config(seed, tiny)
        self.workers = batch_workers() if workload.batch else 1
        self.checks = checks if checks is not None else Checks()
        self.setup_times: list[float] = []
        for _ in range(SETUP_REPS):
            self.instances = self._setup_once()

    def _setup_once(self) -> dict:
        """Build the workload's instances and warm each up with a tiny run."""
        warm = _tiny_config(self.seed)
        t0 = time.perf_counter()
        instances = {fid: make_instance(fid, self.workload.dimension, self.seed)
                     for fid in self.workload.functions}
        for inst in instances.values():
            run(inst, warm)
        self.setup_times.append(time.perf_counter() - t0)
        return instances

    @property
    def setup_s(self) -> float:
        """Median set-up time; timed() adds a sample after every cycle,
        so the median spans the whole measuring window."""
        return statistics.median(self.setup_times)

    # one benchmark cycle: each cycle k runs with its own master seed

    def _cycle_config(self, k: int) -> HybridConfig:
        return replace(self.config, seed=self.seed * 1_000_000 + k)

    def _batch_runs(self) -> int:
        return BATCH_RUNS_PER_WORKER * self.workers

    def _serial_cycle(self, k: int, run_fn) -> Cycle:
        config = self._cycle_config(k)
        results = []
        t0 = time.perf_counter()
        for fid, inst in self.instances.items():
            results.append(((fid, config.seed, 0), run_fn(inst, config, 0)))
        return Cycle(results, time.perf_counter() - t0)

    def _batch_cycle(self, k: int) -> Cycle:
        (fid, inst), = self.instances.items()
        config = self._cycle_config(k)
        t0 = time.perf_counter()
        results, _summary = run_batch(inst, config, self._batch_runs(),
                                      workers=self.workers)
        wall = time.perf_counter() - t0
        return Cycle([((fid, config.seed, r.seed), r) for r in results], wall)

    def _traced_batch_cycle(self, k: int, exports: list) -> Cycle:
        (fid, inst), = self.instances.items()
        config = self._cycle_config(k)
        tasks = [(inst, config, i) for i in range(self._batch_runs())]
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            out = list(pool.map(tracing.traced_member, tasks))
        wall = time.perf_counter() - t0
        exports.extend(ex for _, ex in out)
        return Cycle([((fid, config.seed, r.seed), r) for r, _ in out], wall)

    def step(self, tracer=None, exports=None):
        """The function that runs cycle k: untraced, or traced into `tracer`
        (serial workloads) or into `exports` (the batch, traced in the workers)."""
        if self.workload.batch:
            if exports is None:
                return self._batch_cycle
            return lambda k: self._traced_batch_cycle(k, exports)
        if tracer is None:
            return lambda k: self._serial_cycle(k, run)

        def traced(k):
            with tracer.installed():
                return self._serial_cycle(k, tracer.run)
        return traced

    def timed(self, seconds: float, *steps) -> list[list[Cycle]]:
        """Cycles 0, 1, ... until `seconds` have passed and `quality_cycles` ran.

        Each cycle number runs once per step, the steps taking turns so that
        machine drift falls on all of them alike; one list of cycles per step.
        """
        cycles = [[] for _ in steps]
        t0 = time.perf_counter()
        k = 0
        while k < self.workload.quality_cycles or time.perf_counter() - t0 < seconds:
            for step, done in zip(steps, cycles):
                done.append(step(k))
            self._setup_once()
            k += 1
        for done in cycles:
            for cycle in done:
                for key, result in cycle.results:
                    self.record(key, result)
        return cycles

    def record(self, key, result, label="") -> None:
        self.checks.record(key, result, self.config, self.instances[key[0]], label)

    def rerun_alone(self) -> None:
        """Re-run the last run of cycle 0 alone with `run()` on a fresh copy.

        For a serial workload this shows that a run repeats bit for bit;
        for the batch, that a lone run equals its batch member.
        """
        fid, inst = list(self.instances.items())[-1]
        config = self._cycle_config(0)
        i = self._batch_runs() - 1 if self.workload.batch else 0
        self.record((fid, config.seed, i), run(inst.fresh_copy(), config, i),
                    " (alone)")


def evals_per_s(cycles: list[Cycle]) -> float:
    """Median over cycles of evaluations completed per second of wall time."""
    return statistics.median(c.evals / c.wall_s for c in cycles)


def final_best_log10(bench: Bench, cycles: list[Cycle]) -> float:
    """Mean log10 final best over the runs of the first `quality_cycles`
    cycles, which every invocation makes whatever its measuring time."""
    return statistics.fmean(
        math.log10(r.final_best.fitness)
        for c in cycles[:bench.workload.quality_cycles] for _, r in c.results)


def batch_layers(seed: int, tiny: bool, checks: Checks) -> dict[str, float]:
    """Dispatch figures from cycle 0 of the batch workload.

    Every traced run measures them the same way, so the process-pool layer
    is covered whichever workload is traced.
    """
    bench = Bench(WORKLOADS["batch-d1000-dense"], seed, tiny, checks)
    cycle = bench._batch_cycle(0)
    for key, result in cycle.results:
        bench.record(key, result)
    (_fid, inst), = bench.instances.items()
    task = (inst, bench._cycle_config(0), 0)
    return {
        "batch.pickle_mb_per_task": len(ForkingPickler.dumps(task)) / 1e6,
        "batch.parallel_eff": cycle.run_wall_s / (bench.workers * cycle.wall_s),
        "batch.overhead_s": cycle.wall_s - cycle.run_wall_s / bench.workers,
    }
