"""Per-layer medians from direct timed calls into each module's public functions.

Every figure is the median over many calls of one call's wall time, on
inputs drawn from the benchmark seed. The transform and base-function
stages are timed on each instance's own block shapes, in the order
`BenchmarkInstance.evaluate` applies them.
"""

from __future__ import annotations

import copy
import statistics
import time

import numpy as np

import lsgo_hybrid.benchmarks.functions as functions_mod
from lsgo_hybrid import make_instance
from lsgo_hybrid.benchmarks import FUNCTION_IDS, conditioning_weights, oscillate, skew
from lsgo_hybrid.de import DeParams, mutate_crossover, select_indices
from lsgo_hybrid.harmony import harmony_update
from lsgo_hybrid.population import Population

STAGE_FUNCTIONS = ("F4", "F8", "F13", "F15")
MAKE_FUNCTIONS = ("F1", "F4", "F8", "F13", "F15")
_POOL = 200

# The ad-hoc baseline (ROADMAP.md, 2026-10-17: numpy 2.4.6, OpenBLAS 0.3.31,
# 2-core Intel Xeon), in microseconds, for the cross-check printout.
BASELINE_US = {
    "instance.evaluate_us.F1.d50": 59, "instance.evaluate_us.F4.d50": 339,
    "instance.evaluate_us.F8.d50": 422, "instance.evaluate_us.F12.d50": 401,
    "instance.evaluate_us.F14.d50": 61, "instance.evaluate_us.F15.d50": 57,
    "instance.evaluate_us.F1.d1000": 159, "instance.evaluate_us.F4.d1000": 804,
    "instance.evaluate_us.F8.d1000": 516, "instance.evaluate_us.F11.d1000": 389,
    "instance.evaluate_us.F14.d1000": 147, "instance.evaluate_us.F15.d1000": 420,
    "de.mutate_crossover_us.d50": 118, "de.mutate_crossover_us.d1000": 206,
    "de.select_us": 11, "harmony.update_us.d50": 15, "harmony.update_us.d1000": 33,
    "population.offer_us.reject": 0.6, "population.offer_us.accept": 3.3,
}


def _median_s(fn, args_list) -> float:
    """Median wall time of fn(*args) over the argument tuples given."""
    clock = time.perf_counter
    times = []
    for args in args_list:
        t0 = clock()
        fn(*args)
        times.append(clock() - t0)
    return statistics.median(times)


def _instance_layers(seed: int, reps: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 1])
    out = {}
    for dim in (50, 1000):
        for fid in FUNCTION_IDS:
            inst = make_instance(fid, dim, seed)
            lo, hi = inst.bounds
            xs = rng.uniform(lo, hi, size=(16, dim))
            args = [(xs[k % 16],) for k in range(reps)]
            out[f"instance.evaluate_us.{fid}.d{dim}"] = (
                _median_s(inst.evaluate, args) * 1e6)
    for fid in MAKE_FUNCTIONS:
        out[f"instance.make_s.{fid}.d1000"] = _median_s(
            make_instance, [(fid, 1000, seed)] * 3)
    f15 = make_instance("F15", 1000, seed)
    out["instance.fresh_copy_ms.F15.d1000"] = (
        _median_s(copy.deepcopy, [(f15,)] * 5) * 1e3)
    return out


def _parts(inst):
    parts = list(inst.subcomponents)
    if inst.tail is not None:
        parts.append(inst.tail)
    return parts


def _stage_layers(seed: int, reps: int) -> dict[str, float]:
    """Each x -> z stage of one evaluation, summed over the instance's blocks."""
    rng = np.random.default_rng([seed, 2])
    out = {}
    for fid in STAGE_FUNCTIONS:
        inst = make_instance(fid, 1000, seed)
        parts = _parts(inst)
        base_fn = getattr(functions_mod, inst.base)
        beta = inst.asymmetry_beta
        conds = [conditioning_weights(p.size, inst.conditioning_alpha) for p in parts]
        x = rng.uniform(*inst.bounds, size=inst.dimension)

        def gather(x=x, inst=inst):
            y = (x - inst.shift)[inst.permutation]
            return [y[p.start:p.stop] if p.local_shift is None
                    else y[p.start:p.stop] - p.local_shift for p in parts]

        def rotate(vs):
            return [v if p.rotation is None else p.rotation @ v
                    for p, v in zip(parts, vs)]

        def osc(vs):
            return [oscillate(v) for v in vs]

        def skw(vs):
            return [skew(v, beta) for v in vs]

        def cond(vs):
            return [c * v for c, v in zip(conds, vs)]

        def base(vs):
            return sum(p.weight * base_fn(v) for p, v in zip(parts, vs))

        gathered = gather()
        rotated = rotate(gathered)
        oscillated = osc(rotated)
        skewed = skw(oscillated)
        conditioned = cond(skewed)
        for name, fn, arg in (
            ("transforms.gather_us", gather, None),
            ("transforms.rotate_us", rotate, gathered),
            ("transforms.oscillate_us", osc, rotated),
            ("transforms.skew_us", skw, oscillated),
            ("transforms.condition_us", cond, skewed),
            ("functions.base_us", base, conditioned),
        ):
            args = [()] * reps if arg is None else [(arg,)] * reps
            out[f"{name}.{fid}"] = _median_s(fn, args) * 1e6
    return out


def _random_pool(rng, dim):
    x = rng.uniform(-100.0, 100.0, size=(_POOL, dim))
    return Population(x, rng.uniform(0.0, 1e6, size=_POOL))


def _optimizer_layers(seed: int, reps: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 3])
    bounds = (-100.0, 100.0)
    params = DeParams()
    out = {}
    for dim in (50, 1000):
        pool = _random_pool(rng, dim)
        out[f"harmony.update_us.d{dim}"] = _median_s(
            harmony_update, [(pool, 0.8, 0.4, 0.01, bounds, rng)] * reps) * 1e6
        idx = [select_indices(_POOL, rng) for _ in range(reps)]
        out[f"de.mutate_crossover_us.d{dim}"] = _median_s(
            mutate_crossover, [(pool, *i, params, bounds, rng) for i in idx]) * 1e6
    out["de.select_us"] = _median_s(select_indices, [(_POOL, rng)] * reps) * 1e6

    pool = _random_pool(rng, 50)
    v = rng.uniform(-100.0, 100.0, size=50)
    out["population.offer_us.reject"] = _median_s(
        pool.offer, [(v, 2e6)] * reps) * 1e6
    # each accepted offer is below every member, so the next one is accepted too
    fits = -np.arange(1, reps + 1, dtype=float)
    out["population.offer_us.accept"] = _median_s(
        pool.offer, [(v, f) for f in fits]) * 1e6
    return out


def measure(seed: int, reps: int) -> dict[str, float]:
    out = _instance_layers(seed, reps)
    out.update(_stage_layers(seed, reps))
    out.update(_optimizer_layers(seed, reps))
    return out


def projected_table_h(layers: dict[str, float]) -> float:
    """Serial wall hours of the 15 x 25 x 3M-evaluation table at D=1000.

    Per evaluation: the function's own evaluate median, plus the optimizer
    overhead at the paper's 1:2 harmony:DE mix (one harmony update or one
    DE selection and crossover, then one offer, mostly rejected).
    """
    overhead_us = ((layers["harmony.update_us.d1000"]
                    + 2 * (layers["de.select_us"] + layers["de.mutate_crossover_us.d1000"]))
                   / 3 + layers["population.offer_us.reject"])
    per_run_us = sum(layers[f"instance.evaluate_us.{fid}.d1000"] + overhead_us
                     for fid in FUNCTION_IDS) * 3_000_000
    return 25 * per_run_us / 1e6 / 3600


def cross_check(layers: dict[str, float]) -> list[str]:
    """Lines comparing the layer medians with the ad-hoc baseline."""
    lines = []
    for name, base in BASELINE_US.items():
        ratio = layers[name] / base
        flag = "  <-- more than 2x off" if not 0.5 <= ratio <= 2.0 else ""
        lines.append(f"  {name:36s} {layers[name]:9.2f} us vs {base:7.1f} us"
                     f"  ({ratio:.2f}x){flag}")
    return lines
