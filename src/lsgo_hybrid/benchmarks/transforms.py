"""Coordinate transforms that turn the smooth base functions into harder ones.

An instance maps a raw search point x to the vector z fed to the base
functions: subtract the shift, permute, rotate each block, then apply the
scalar maps (irregularity, asymmetry, conditioning). The scalar maps act on
each coordinate alone, given the coordinate's position within its block,
so `BenchmarkInstance` runs them once over all blocks laid end to end.
"""

from __future__ import annotations

import numpy as np


def oscillate(z: np.ndarray) -> np.ndarray:
    """Sign-preserving wobble on the log scale; fixes 0 and +-1 exactly."""
    zero = z == 0
    xhat = np.log(np.abs(z) + zero)  # log|z|, and 0 where z is 0
    pos = z > 0
    c1 = np.where(pos, 10.0, 5.5)
    c2 = np.where(pos, 7.9, 3.1)
    wobble = np.exp(xhat + 0.049 * (np.sin(c1 * xhat) + np.sin(c2 * xhat)))
    np.copysign(wobble, z, out=wobble)
    wobble[zero] = 0.0
    return wobble


def skew(z: np.ndarray, beta: float) -> np.ndarray:
    """Graded exponent on positive coordinates: z^(1 + beta*g_i*sqrt(z)).

    g_i ramps 0..1 over the block; negative coordinates pass through, so the
    map fixes 0 and 1 at every index.
    """
    return skew_graded(z, beta * _gradient(z.size))


def skew_graded(z: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """`skew` with the per-coordinate slope beta*g_i given, for blocks laid end to end."""
    # power of |z| never sees a negative base; where() passes negatives through
    expo = 1.0 + slope * np.sqrt(np.maximum(z, 0.0))
    return np.where(z > 0, np.power(np.abs(z), expo), z)


def conditioning_weights(n: int, alpha: float) -> np.ndarray:
    """Diagonal entries alpha^(g_i / 2), g_i ramping 0..1 over the block."""
    return alpha ** (0.5 * _gradient(n))


def _gradient(n: int) -> np.ndarray:
    if n < 2:
        return np.zeros(n)
    return np.arange(n) / (n - 1)


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal matrix from the QR factorisation of a Gaussian draw.

    Column signs are fixed from the R diagonal so the result is a
    deterministic function of the draw.
    """
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
