"""Harmony search phase with a linearly rising memory-consideration rate.

Each iteration builds one new vector: with probability hmcr it perturbs a
randomly chosen pool member (pitch adjustment per coordinate with
probability par, uniform noise within the bandwidth, then clipped to the
box), otherwise it draws a fresh uniform point. The new vector
replaces the pool's worst member only on strict improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import population
from .population import Population

# range of the pitch-adjustment rate; the tuner searches inside it
PAR_RANGE = (0.0, 1.0)
# the memory-consideration rate rises from HMCR_LO to HMCR_HI over a phase
HMCR_LO, HMCR_HI = 0.7, 0.9
# pitch-adjustment noise bound as a fraction of the box width
BANDWIDTH_FRACTION = 0.01


@dataclass
class HarmonyParams:
    max_iterations: int = 10_000
    par: float = 0.4

    def validate(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        lo, hi = PAR_RANGE
        if not lo <= self.par <= hi:
            raise ValueError(f"par={self.par} outside [{lo}, {hi}]")


def hmcr_schedule(iteration, max_iterations: int):
    """Memory-consideration rate at `iteration` (1-based, int or int array),
    rising HMCR_LO -> HMCR_HI."""
    if max_iterations < 2:
        return HMCR_LO
    return HMCR_LO + (HMCR_HI - HMCR_LO) * (iteration - 1) / (max_iterations - 1)


def _harmony_draws(u: np.ndarray, hmcr, par: float, bandwidth_fraction: float,
                   bounds, pool_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool-independent part of harmony iterations from their 2 + d uniforms per row.

    Row i is a memory iteration if u[i, 0] < hmcr (hmcr[i] for an array);
    it then perturbs member floor(u[i, 1] * pool_size), adjusting coordinate
    j iff u_j < par by the noise u_j * (2*bw/par) - bw in [-bw, bw]. Else
    it is the fresh point lo + u_j * (hi - lo). Returns the member index per
    row (-1 for a fresh point) and, per row, the noise (zero where not
    adjusted) or the fresh point, written over u[:, 2:].
    """
    lo, hi = bounds
    memory = u[:, 0] < hmcr
    picks = np.minimum((u[:, 1] * pool_size).astype(np.intp), pool_size - 1)
    fresh = np.flatnonzero(~memory)
    picks[fresh] = -1
    rows = u[:, 2:]
    points = rows[fresh] * (hi - lo) + lo
    bw = bandwidth_fraction * (hi - lo)
    adjust = rows < par
    rows *= 2 * bw / par if par > 0 else 0.0
    rows -= bw
    rows *= adjust  # unadjusted coordinates get a zero of either sign
    rows[fresh] = points
    return picks, rows


def _harmony_candidates(memory: Population, picks: np.ndarray, rows: np.ndarray,
                        bounds) -> np.ndarray:
    """New vectors of iterations from their `_harmony_draws`: the pool's
    current member picks[i] plus rows[i], clamped to the box, or rows[i]
    itself for a fresh point."""
    lo, hi = bounds
    v = memory.x[picks] + rows  # a fresh point's -1 reads a row it then drops
    np.maximum(v, lo, out=v)
    np.minimum(v, hi, out=v)
    fresh = picks < 0
    v[fresh] = rows[fresh]
    return v


def harmony_update(memory: Population, hmcr: float, par: float,
                   bandwidth_fraction: float, bounds, rng) -> np.ndarray:
    """Construct one new vector from the pool (or uniformly at random).

    Draws rng.random(2 + d), laid out as in `_harmony_draws`.
    """
    picks, rows = _harmony_draws(rng.random((1, 2 + memory.dimension)), hmcr, par,
                                 bandwidth_fraction, bounds, len(memory))
    return _harmony_candidates(memory, picks, rows, bounds)[0]


def harmony_run(memory: Population, params: HarmonyParams, objective, rng,
                iteration_window: tuple[int, int] | None = None,
                bounds: tuple[float, float] | None = None) -> int:
    """Run harmony iterations against `objective` (one evaluation each).

    `iteration_window` (first, last), 1-based inclusive, selects a stretch
    of the unchanged hmcr schedule; the default runs the whole schedule.
    `bounds` defaults to the objective's own `bounds` attribute.
    Returns the number of evaluations spent.

    Each iteration's draws are the 2 + d doubles `harmony_update` takes; up
    to `population.CHUNK` iterations draw theirs in one call and get their
    branches, indices, noise and fresh points at once. The new vectors are
    then built from the pool as it is, evaluated and offered in the
    rank-safe batches of `Population.offer_batches` (an iteration reads its
    member, a fresh point no row), which give exactly the
    one-iteration-at-a-time result.
    """
    params.validate()
    first, last = iteration_window or (1, params.max_iterations)
    bounds = bounds if bounds is not None else objective.bounds
    evaluate = population.batch_evaluator(objective)
    it = first
    while it <= last:
        n = min(population.CHUNK, last - it + 1)
        hmcr = hmcr_schedule(np.arange(it, it + n), params.max_iterations)
        picks, rows = _harmony_draws(rng.random((n, 2 + memory.dimension)), hmcr,
                                     params.par, BANDWIDTH_FRACTION, bounds, len(memory))
        memory.offer_batches(
            picks[:, None],
            lambda i, j: _harmony_candidates(memory, picks[i:j], rows[i:j], bounds),
            evaluate)
        it += n
    return max(0, last - first + 1)
