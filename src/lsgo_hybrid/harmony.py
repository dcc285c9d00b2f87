"""Harmony search phase with a linearly rising memory-consideration rate.

Each iteration builds one new vector: with probability hmcr it perturbs a
randomly chosen pool member (pitch adjustment per coordinate with
probability par), otherwise it draws a fresh uniform point. The new vector
replaces the pool's worst member only on strict improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import Population

# range of the pitch-adjustment rate; the tuner searches inside it
PAR_RANGE = (0.0, 1.0)


@dataclass
class HarmonyParams:
    max_iterations: int = 10_000
    hmcr_lo: float = 0.7
    hmcr_hi: float = 0.9
    par: float = 0.4
    bandwidth_fraction: float = 0.01

    def validate(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        for name, (lo, hi) in (("hmcr_lo", (0.0, 1.0)), ("hmcr_hi", (0.0, 1.0)),
                               ("par", PAR_RANGE)):
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {v}")
        if self.hmcr_hi < self.hmcr_lo:
            raise ValueError("hmcr_hi must be >= hmcr_lo")
        if self.bandwidth_fraction < 0:
            raise ValueError("bandwidth_fraction must be non-negative")


def hmcr_schedule(iteration: int, max_iterations: int, lo: float, hi: float) -> float:
    """Memory-consideration rate at `iteration` (1-based), rising lo -> hi."""
    if max_iterations < 2:
        return lo
    return lo + (hi - lo) * (iteration - 1) / (max_iterations - 1)


def harmony_update(memory: Population, hmcr: float, par: float,
                   bandwidth_fraction: float, bounds, rng) -> np.ndarray:
    """Construct one new vector from the pool (or uniformly at random)."""
    lo, hi = bounds
    d = memory.dimension
    if rng.random() < hmcr:
        base = memory.x[rng.integers(len(memory))]
        bw = bandwidth_fraction * (hi - lo)
        adjust = rng.random(d) < par
        noise = rng.uniform(-bw, bw, d)
        v = np.where(adjust, base + noise, base)
        return np.clip(v, lo, hi)
    return rng.uniform(lo, hi, d)


def harmony_run(memory: Population, params: HarmonyParams, objective, rng,
                iteration_window: tuple[int, int] | None = None,
                bounds: tuple[float, float] | None = None) -> int:
    """Run harmony iterations against `objective` (one evaluation each).

    `iteration_window` (first, last), 1-based inclusive, selects a stretch
    of the unchanged hmcr schedule; the default runs the whole schedule.
    `bounds` defaults to the objective's own `bounds` attribute.
    Returns the number of evaluations spent.
    """
    params.validate()
    first, last = iteration_window or (1, params.max_iterations)
    lo, hi = bounds if bounds is not None else objective.bounds
    for it in range(first, last + 1):
        hmcr = hmcr_schedule(it, params.max_iterations, params.hmcr_lo, params.hmcr_hi)
        v = harmony_update(memory, hmcr, params.par,
                           params.bandwidth_fraction, (lo, hi), rng)
        memory.offer(v, objective(v))
    return max(0, last - first + 1)
