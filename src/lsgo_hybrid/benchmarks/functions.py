"""Base objective functions shared by the benchmark family.

All functions map a real vector z to a finite non-negative scalar and are
minimised at the all-zeros vector, except Rosenbrock which is minimised at
the all-ones vector. Each one reduces over the last axis only: a 2-d
C-ordered array gives one value per row, and every sum is a row sum, so a
row's value does not depend on how many rows there are.
"""

from __future__ import annotations

import numpy as np

# Symmetric box half-width per base function.
BOUNDS = {
    "elliptic": 100.0,
    "rastrigin": 5.0,
    "ackley": 32.0,
    "schwefel_12": 100.0,
    "rosenbrock": 100.0,
}

def elliptic(z: np.ndarray):
    """Weighted sphere with condition number 1e6 across coordinates."""
    return (elliptic_weights(z.shape[-1]) * (z * z)).sum(axis=-1)


def elliptic_weights(n: int) -> np.ndarray:
    # (10^6)^((i-1)/(D-1)); a single coordinate gets weight 1
    if n < 2:
        return np.ones(n)
    return 10.0 ** (6.0 * np.arange(n) / (n - 1))


def rastrigin(z: np.ndarray):
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=-1)


def ackley(z: np.ndarray):
    n = z.shape[-1]
    rms = np.sqrt((z * z).sum(axis=-1) / n)
    mean_cos = np.cos(2.0 * np.pi * z).sum(axis=-1) / n
    return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e


def schwefel_12(z: np.ndarray):
    # sum over i of (z_1 + ... + z_i)^2, via cumulative sums
    c = z.cumsum(axis=-1)
    return (c * c).sum(axis=-1)


def rosenbrock(z: np.ndarray):
    a = z[..., :-1]
    b = z[..., 1:]
    return (100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2).sum(axis=-1)


# the per-block base of every non-elliptic id; an elliptic id's value is one
# weighted row sum (`BenchmarkInstance._row_weights`) and never dispatches
_DISPATCH = {
    "rastrigin": rastrigin,
    "ackley": ackley,
    "schwefel_12": schwefel_12,
    "rosenbrock": rosenbrock,
}

