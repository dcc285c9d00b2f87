"""Coordinate transforms that turn the smooth base functions into harder ones.

An instance maps a raw search point x to the vector z fed to the base
functions: subtract the shift, permute, rotate each block, then apply the
scalar maps (irregularity, asymmetry, conditioning). The scalar maps act on
each coordinate alone, given the coordinate's position within its block,
so `BenchmarkInstance` runs them once over all blocks laid end to end.
"""

from __future__ import annotations

import numpy as np


# sine coefficients of `oscillate`, indexed by z > 0: (negative, positive)
_SIN_C1 = np.array([5.5, 10.0])
_SIN_C2 = np.array([3.1, 7.9])


def oscillate(z: np.ndarray) -> np.ndarray:
    """Sign-preserving wobble on the log scale; fixes 0 and +-1 exactly."""
    return oscillate_skew_inplace(np.array(z, dtype=float), 0.0)


def oscillate_skew_inplace(z: np.ndarray, slope: np.ndarray | float) -> np.ndarray:
    """`skew` after `oscillate`, in log space, written over the float array z;
    returns z. `slope` is the per-coordinate beta*g_i (blocks laid end to end)
    or a scalar; with slope 0 this is `oscillate` alone.

    With w = log|oscillate(z)| = log|z| + 0.049*(sin(c1*log|z|) + sin(c2*log|z|)),
    the result is sign(z) * exp(w*E), E = 1 + slope*exp(w/2) where z > 0 and
    E = 1 elsewhere: oscillate(z)^(1 + slope*sqrt(oscillate(z))) written with
    two exp calls in place of exp, sqrt and power. 0 and +-1 map to
    themselves exactly, and each element's bits depend on its value and slope
    alone, not on the array's length, offset or stride.
    """
    zero = z == 0
    pos = z > 0
    sign = pos.view(np.uint8)
    w = np.abs(z)
    w[zero] = 1.0
    np.log(w, out=w)  # log|z|, and 0 where z is 0
    s1 = _SIN_C1.take(sign)
    s1 *= w
    sin_inplace(s1)
    s2 = _SIN_C2.take(sign)
    s2 *= w
    s1 += sin_inplace(s2)
    s1 *= 0.049
    w += s1  # log|oscillate(z)|
    # E: exp(w/2) is finite for every finite z, so the mask leaves exactly 1
    np.multiply(w, 0.5, out=s1)
    np.exp(s1, out=s1)
    s1 *= slope
    s1 *= pos
    s1 += 1.0
    w *= s1
    np.exp(w, out=w)
    np.copysign(w, z, out=z)
    z[zero] = 0.0
    return z


def sin_inplace(x: np.ndarray) -> np.ndarray:
    """sin x written over the float array x; returns x.

    Half-angle form (t + t) / (1 + t*t) with t = tan(x/2): numpy runs float64
    tan through SIMD where the CPU has it and sin through scalar libm, about
    ten times slower. Against np.sin the error is at most 2**-51 absolute
    and a few ulp relative away from the zeros of sin; sin 0 is exactly 0.
    Each element's bits depend on its value alone, not on the array's
    length, offset or stride.
    """
    x *= 0.5
    np.tan(x, out=x)
    denom = x * x
    denom += 1.0
    x += x
    x /= denom
    return x


def skew(z: np.ndarray, beta: float) -> np.ndarray:
    """Graded exponent on positive coordinates: z^(1 + beta*g_i*sqrt(z)).

    g_i ramps 0..1 over the block; negative coordinates pass through, so the
    map fixes 0 and 1 at every index.
    """
    z = np.array(z, dtype=float)
    # the power of |z| never sees a negative base, nor zeros (a slow path of
    # np.power); only the positive coordinates take its result
    expo = np.maximum(z, 0.0)
    np.sqrt(expo, out=expo)
    expo *= beta * _gradient(z.size)
    expo += 1.0
    powered = np.abs(z)
    np.power(powered, expo, out=powered)
    np.putmask(z, z > 0, powered)
    return z


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
