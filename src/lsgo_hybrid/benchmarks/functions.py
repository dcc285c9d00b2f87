"""Base objective functions shared by the benchmark family.

All functions map a real vector z to a finite non-negative scalar and are
minimised at the all-zeros vector, except Rosenbrock which is minimised at
the all-ones vector.
"""

from __future__ import annotations

import numpy as np

# Symmetric box half-width per base function.
BOUNDS = {
    "sphere": 100.0,
    "elliptic": 100.0,
    "rastrigin": 5.0,
    "ackley": 32.0,
    "schwefel_12": 100.0,
    "rosenbrock": 100.0,
}

BASE_FUNCTIONS = tuple(BOUNDS)

# Bases whose prefix-sum / chain structure needs at least two coordinates.
_MIN_LEN_2 = ("schwefel_12", "rosenbrock")


def sphere(z: np.ndarray) -> float:
    return float(np.dot(z, z))


def elliptic(z: np.ndarray) -> float:
    """Weighted sphere with condition number 1e6 across coordinates."""
    return float(np.dot(elliptic_weights(z.size), z * z))


def elliptic_weights(n: int) -> np.ndarray:
    # (10^6)^((i-1)/(D-1)); a single coordinate gets weight 1
    if n < 2:
        return np.ones(n)
    return 10.0 ** (6.0 * np.arange(n) / (n - 1))


def rastrigin(z: np.ndarray) -> float:
    return float(np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0))


def ackley(z: np.ndarray) -> float:
    n = z.size
    rms = np.sqrt(np.dot(z, z) / n)
    mean_cos = np.sum(np.cos(2.0 * np.pi * z)) / n
    return float(-20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e)


def schwefel_12(z: np.ndarray) -> float:
    # sum over i of (z_1 + ... + z_i)^2, via cumulative sums
    c = z.cumsum()
    return float(np.dot(c, c))


def rosenbrock(z: np.ndarray) -> float:
    a = z[:-1]
    b = z[1:]
    return float(np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2))


_DISPATCH = {
    "sphere": sphere,
    "elliptic": elliptic,
    "rastrigin": rastrigin,
    "ackley": ackley,
    "schwefel_12": schwefel_12,
    "rosenbrock": rosenbrock,
}


def eval_base(name: str, z: np.ndarray) -> float:
    """Evaluate base function `name` at z.

    Raises ValueError for an unknown name, a non-finite input, or a vector
    shorter than 2 for the chain-structured bases.
    """
    try:
        fn = _DISPATCH[name]
    except KeyError:
        raise ValueError(
            f"unknown base function {name!r}; expected one of {sorted(_DISPATCH)}"
        ) from None
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite coordinate in input vector")
    if name in _MIN_LEN_2 and z.size < 2:
        raise ValueError(f"{name} needs at least 2 coordinates, got {z.size}")
    return fn(z)
