"""Differential evolution phase with pool-style worst replacement.

Classic rand/1/bin candidate construction, but selection follows the
shared-pool rule: a candidate replaces the pool's current worst member on
strict improvement instead of competing with its own parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import population
from .population import Population

# crossover redraws the bound repair stands for (see _crossover_masks)
_BOUND_RETRIES = 10

# ranges of the crossover rate and scale factor; the tuner searches inside them
CR_RANGE = (0.0, 1.0)
F_RANGE = (0.0, 2.0)


@dataclass
class DeParams:
    max_iterations: int = 100
    cr: float = 0.9
    f: float = 0.5

    def validate(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        for name, (lo, hi) in (("cr", CR_RANGE), ("f", F_RANGE)):
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name}={v} outside [{lo}, {hi}]")


def _distinct_indices(u: np.ndarray, pool_size: int) -> np.ndarray:
    """Rows of four pairwise-distinct indices from rows of four uniforms.

    Index k is floor(u_k * (pool_size - k)), a uniform pick among the members
    not chosen yet, stepped past each chosen index in ascending order; the
    tuple is uniform over ordered distinct tuples.
    """
    if pool_size < 4:
        raise ValueError("differential evolution needs a pool of at least 4")
    left = pool_size - np.arange(4)
    k = (u * left).astype(np.intp)
    np.minimum(k, left - 1, out=k)  # in case u * left rounds up to left
    x, a, b, c = k.T  # views: stepping them steps k
    a += a >= x
    b += b >= np.minimum(x, a)
    b += b >= np.maximum(x, a)
    for chosen in np.sort(k[:, :3], axis=1).T:
        c += c >= chosen
    return k


def _crossover_masks(u: np.ndarray, cr: float) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate choices of trials from their 1 + d uniforms per row.

    u[:, 0] gives the forced coordinate i_rand = floor(u * d); coordinate j
    then takes, by its own uniform u_j:
      u_j >= cr                the parent's value          (`keep`)
      cr**11 <= u_j < cr       the mutant's if inside the box, else the
                               parent's                     (`test`)
      u_j < cr**11, or i_rand  the mutant clamped into the box.
    A crossed coordinate outside the box thus falls back with probability
    1 - cr**10, as if one of ten crossover redraws had picked the parent.
    """
    d = u.shape[1] - 1
    i_rand = np.minimum((u[:, 0] * d).astype(np.intp), d - 1)
    u = u[:, 1:]
    keep = u >= cr
    test = u >= cr ** (_BOUND_RETRIES + 1)
    test ^= keep
    rows = np.arange(len(u))
    keep[rows, i_rand] = False
    test[rows, i_rand] = False
    return keep, test


def _trials(pop: Population, picks: np.ndarray, keep: np.ndarray, test: np.ndarray,
            params: DeParams, bounds) -> np.ndarray:
    """Trial vectors, one per row of (x, a, b, c) `picks` and of the coordinate
    choices, from the pool's current rows; each row's arithmetic is that of
    a lone trial."""
    x, a, b, c = picks.T
    mutant = pop.x[b] - pop.x[c]
    mutant *= params.f
    mutant += pop.x[a]
    lo, hi = bounds
    v = np.maximum(mutant, lo)
    np.minimum(v, hi, out=v)
    parent = v != mutant  # the mutant is outside the box
    parent &= test
    parent |= keep
    np.putmask(v, parent, pop.x[x])
    return v


def select_indices(pool_size: int, rng) -> tuple[int, int, int, int]:
    """Four pairwise-distinct indices (target, then three donors).

    Draws rng.random(4): the first four doubles of a trial's draws.
    """
    return tuple(_distinct_indices(rng.random((1, 4)), pool_size)[0].tolist())


def mutate_crossover(pop: Population, x: int, a: int, b: int, c: int,
                     params: DeParams, bounds, rng) -> np.ndarray:
    """Build one trial vector for target x from donors a, b, c.

    Binomial crossover with a guaranteed coordinate i_rand and bound repair
    as laid out in `_crossover_masks`. Draws rng.random(1 + d): the rest of
    a trial's draws after `select_indices`.
    """
    keep, test = _crossover_masks(rng.random((1, 1 + pop.dimension)), params.cr)
    return _trials(pop, np.array([[x, a, b, c]]), keep, test, params, bounds)[0]


def de_run(pop: Population, params: DeParams, objective, rng,
           max_candidates: int | None = None,
           bounds: tuple[float, float] | None = None) -> int:
    """Run sweeps of len(pop) candidate constructions each.

    Every candidate costs exactly one evaluation; `max_candidates` caps the
    total (for exact budget accounting) and cuts the last sweep short.
    `bounds` defaults to the objective's own `bounds` attribute.
    Returns the number of evaluations spent.

    Each trial's draws are 4 + 1 + d doubles, the ones `select_indices` and
    `mutate_crossover` take; up to `population.CHUNK` trials draw theirs in
    one call and get their indices and coordinate choices at once. The
    trials are then built from the pool as it is, evaluated and offered in
    the rank-safe batches of `Population.offer_batches` (a trial reads rows
    x, a, b and c), which give exactly the one-trial-at-a-time result.
    """
    params.validate()
    budget = params.max_iterations * len(pop)
    if max_candidates is not None:
        budget = min(budget, max_candidates)
    if bounds is None:
        bounds = objective.bounds
    evaluate = population.batch_evaluator(objective)
    spent = 0
    while spent < budget:
        n = min(population.CHUNK, budget - spent)
        u = rng.random((n, 5 + pop.dimension))
        picks = _distinct_indices(u[:, :4], len(pop))
        keep, test = _crossover_masks(u[:, 4:], params.cr)
        pop.offer_batches(
            picks,
            lambda i, j: _trials(pop, picks[i:j], keep[i:j], test[i:j], params, bounds),
            evaluate)
        spent += n
    return spent
