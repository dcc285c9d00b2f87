"""Candidate pool shared by the two optimisation phases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks.instance import G

# The largest number of candidates a phase draws in one rng.random call.
# Each candidate's draws are a fixed-length run of doubles, so this bounds
# the draw buffer (256 x 1005 doubles is about 2 MB at D=1000) without
# changing any result. A DE sweep of the paper's 200-member pool fits in one
# draw, so its rank-safe batches do not end early at a chunk edge.
CHUNK = 256

# The largest number of candidates a phase evaluates in one call: one group
# of the benchmark kernel. Batches never change a result (see offer_batches).
BATCH = G


def batch_evaluator(objective):
    """`objective.evaluate_batch`, or a loop calling `objective` on each row."""
    return getattr(objective, "evaluate_batch", None) or (
        lambda x: np.array([objective(row) for row in x], dtype=float))


@dataclass
class Candidate:
    x: np.ndarray
    fitness: float


class Population:
    """Fixed-size pool of candidates with worst-member tracking.

    Both optimisation phases mutate the same pool in place, replacing the
    current worst member whenever a strictly better candidate appears, so
    the pool passes between phases untouched otherwise.
    """

    def __init__(self, x: np.ndarray, fitness: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.fitness = np.asarray(fitness, dtype=float)
        if self.x.ndim != 2 or self.fitness.shape != (self.x.shape[0],):
            raise ValueError("population needs an (n, d) matrix and n fitness values")
        # a NaN member would be the argmax "worst" that no candidate can
        # strictly beat, freezing the pool; as +inf any finite value beats it
        # (offer() already rejects NaN candidates, as NaN < worst is false)
        nan = np.isnan(self.fitness)
        if nan.any():
            self.fitness = np.where(nan, np.inf, self.fitness)
        self._worst = int(np.argmax(self.fitness))

    @classmethod
    def random_uniform(cls, size, dimension, bounds, rng, objective):
        """Uniform draw inside the box, evaluated by `objective` through
        `batch_evaluator`."""
        lo, hi = bounds
        x = rng.uniform(lo, hi, size=(size, dimension))
        return cls(x, batch_evaluator(objective)(x))

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[1]

    @property
    def worst_fitness(self) -> float:
        return float(self.fitness[self._worst])

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.fitness))

    @property
    def best_fitness(self) -> float:
        return float(self.fitness.min())

    def best(self) -> Candidate:
        i = self.best_index
        return Candidate(self.x[i].copy(), float(self.fitness[i]))

    def replace_worst(self, x: np.ndarray, fitness: float) -> int:
        """Overwrite the worst member and rescan for the new worst."""
        i = self._worst
        self.x[i] = x
        self.fitness[i] = fitness
        self._worst = int(np.argmax(self.fitness))
        return i

    def offer(self, x: np.ndarray, fitness: float) -> bool:
        """Accept the candidate only if strictly better than the worst member."""
        if fitness < self.worst_fitness:
            self.replace_worst(x, fitness)
            return True
        return False

    def offer_batches(self, reads, cap: int, build, evaluate) -> None:
        """Offer candidates 0..n-1 in order, evaluating them in batches.

        Candidate i reads the pool rows `reads[i]` (a sequence of row
        indices, empty for one that reads none), `build(start, stop)` returns
        candidates start..stop-1 as the rows of a new array, built from the
        pool rows as they are, and `evaluate` maps such an array to values.

        Each batch holds at most `cap` candidates. At its start the rows are
        ranked by (fitness descending, index ascending), the order in which
        `replace_worst` finds the worst, and candidate k of the batch
        (0-based) joins only if every row it reads has rank >= k. This gives
        exactly the vectors, values and replacements of building, evaluating
        and offering one candidate at a time. An accepted offer overwrites
        the current worst row. Suppose the first j acceptances of the batch
        overwrote only rows of rank < j. The untouched rows keep their
        fitness, and their order, so the worst row is an overwritten one or
        the untouched one of lowest rank, which is at most j as the row of
        rank j is untouched; so acceptance j + 1 overwrites a row of rank
        < j + 1, and by induction the first j acceptances overwrite only rows
        of rank < j. At most k acceptances precede candidate k, so every row
        it reads still holds its value from the start of the batch, and it
        is the vector the one-at-a-time loop would build. Nothing is
        discarded or rebuilt, and every candidate costs one evaluation.
        """
        n = len(reads)
        start = 0
        while start < n:
            rank = np.empty(len(self), dtype=np.intp)
            rank[np.argsort(-self.fitness, kind="stable")] = np.arange(len(self))
            rank = rank.tolist()
            stop = start + 1
            end = min(n, start + cap)
            while stop < end and all(rank[r] >= stop - start for r in reads[stop]):
                stop += 1
            x = build(start, stop)
            for row, fitness in zip(x, evaluate(x).tolist()):
                self.offer(row, fitness)
            start = stop
