"""Differential evolution phase with pool-style worst replacement.

Classic rand/1/bin candidate construction (best/1/bin optional), but
selection follows the shared-pool rule: a candidate replaces the pool's
current worst member on strict improvement instead of competing with its
own parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import Population

_STRATEGIES = ("rand1bin", "best1bin")
_BOUND_RETRIES = 10

# ranges of the crossover rate and scale factor; the tuner searches inside them
CR_RANGE = (0.0, 1.0)
F_RANGE = (0.0, 2.0)


@dataclass
class DeParams:
    max_iterations: int = 100
    cr: float = 0.9
    f: float = 0.5
    strategy: str = "rand1bin"

    def validate(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        for name, (lo, hi) in (("cr", CR_RANGE), ("f", F_RANGE)):
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {v}")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")


def select_indices(pool_size: int, rng) -> tuple[int, int, int, int]:
    """Four pairwise-distinct indices (target, then three donors)."""
    if pool_size < 4:
        raise ValueError("differential evolution needs a pool of at least 4")
    x = int(rng.integers(pool_size))
    a = x
    while a == x:
        a = int(rng.integers(pool_size))
    b = a
    while b in (x, a):
        b = int(rng.integers(pool_size))
    c = b
    while c in (x, a, b):
        c = int(rng.integers(pool_size))
    return x, a, b, c


def mutate_crossover(pop: Population, x: int, a: int, b: int, c: int,
                     params: DeParams, bounds, rng) -> np.ndarray:
    """Build one trial vector for target x from donors a, b, c.

    Binomial crossover with a guaranteed coordinate i_rand. A crossed
    coordinate whose mutant lies outside the box falls back to the parent
    value with probability 1 - cr**10 (one of ten crossover redraws picks
    the parent), independently per coordinate, else it is clamped; i_rand
    never falls back. Draws, in order: rng.integers(d) for i_rand,
    rng.random(d) for the crossover mask, then rng.random(n_out) over the
    n_out out-of-box crossed coordinates in index order if n_out > 0.
    """
    lo, hi = bounds
    d = pop.dimension
    current = pop.x[x]
    base = pop.x[pop.best_index] if params.strategy == "best1bin" else pop.x[a]
    mutant = base + params.f * (pop.x[b] - pop.x[c])

    i_rand = int(rng.integers(d))
    cross = rng.random(d) < params.cr
    cross[i_rand] = True
    v = np.where(cross, mutant, current)

    out = np.flatnonzero(cross & ((v < lo) | (v > hi)))
    if out.size:
        # one uniform stands for the ten crossover redraws of the parent
        fall_back = rng.random(out.size) >= params.cr ** _BOUND_RETRIES
        fall_back[out == i_rand] = False
        back = out[fall_back]
        v[back] = current[back]
        if back.size < out.size:
            np.clip(v, lo, hi, out=v)
    return v


def de_run(pop: Population, params: DeParams, objective, rng,
           max_candidates: int | None = None,
           bounds: tuple[float, float] | None = None) -> int:
    """Run sweeps of len(pop) candidate constructions each.

    Every candidate costs exactly one evaluation; `max_candidates` caps the
    total (for exact budget accounting) and cuts the last sweep short.
    `bounds` defaults to the objective's own `bounds` attribute.
    Returns the number of evaluations spent.
    """
    params.validate()
    budget = params.max_iterations * len(pop)
    if max_candidates is not None:
        budget = min(budget, max_candidates)
    if bounds is None:
        bounds = objective.bounds
    spent = 0
    while spent < budget:
        for _ in range(min(len(pop), budget - spent)):
            x, a, b, c = select_indices(len(pop), rng)
            v = mutate_crossover(pop, x, a, b, c, params, bounds, rng)
            pop.offer(v, objective(v))
            spent += 1
    return spent
