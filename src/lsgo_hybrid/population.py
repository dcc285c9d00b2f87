"""Candidate pool shared by the two optimisation phases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The largest number of candidates a phase draws in one rng.random call.
# Each candidate's draws are a fixed-length run of doubles, so this bounds
# the draw buffer (64 x 1005 doubles is about 0.5 MB at D=1000) without
# changing any result.
CHUNK = 64


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
        """Uniform draw inside the box, each member evaluated by `objective`."""
        lo, hi = bounds
        x = rng.uniform(lo, hi, size=(size, dimension))
        return cls(x, np.array([objective(row) for row in x]))

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
