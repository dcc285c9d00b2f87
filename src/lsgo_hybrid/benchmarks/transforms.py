"""Coordinate transforms that turn the smooth base functions into harder ones.

An instance maps a raw search point x to the vector z fed to the base
functions: subtract the shift, permute, rotate each block, then apply the
scalar maps (irregularity, asymmetry, conditioning). The scalar maps act on
each coordinate alone, given the coordinate's position within its block,
so `BenchmarkInstance` runs them once over all blocks laid end to end.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import lapack_lite


# halves of `oscillate`'s sine coefficients (5.5, 10.0), (3.1, 7.9) as
# (lo, hi - lo), negative z taking lo; lo + (hi - lo) rounds to exactly hi
_HALF_C1 = (2.75, 5.0 - 2.75)
_HALF_C2 = (1.55, 3.95 - 1.55)


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
    two exp calls in place of exp, sqrt and power; sin(c*v) is taken as
    2*half_sin_inplace(v*c/2), the 2 folded exactly into 0.098 = 2*0.049. 0
    and +-1 map to themselves exactly, and each element's bits depend on its
    value and slope alone, not on the array's length, offset or stride.
    """
    zero = z == 0
    pos = np.greater(z, 0.0, out=np.empty(z.shape))  # 1.0 where z > 0, else 0.0
    w = np.abs(z)
    w[zero] = 1.0
    np.log(w, out=w)  # log|z|, and 0 where z is 0
    s1 = pos * _HALF_C1[1]
    s1 += _HALF_C1[0]
    s1 *= w
    half_sin_inplace(s1)
    s2 = pos * _HALF_C2[1]
    s2 += _HALF_C2[0]
    s2 *= w
    s1 += half_sin_inplace(s2)
    s1 *= 0.098
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


def half_sin_inplace(h: np.ndarray) -> np.ndarray:
    """sin(2h) / 2 written over the float array h; returns h.

    Half-angle form t / (1 + t*t) with t = tan h: numpy runs float64 tan
    through SIMD where the CPU has it and sin through scalar libm, about ten
    times slower. Against np.sin, 2*half_sin_inplace(x/2) errs by at most
    2**-51 absolute and a few ulp relative away from the zeros of sin; the
    value at 0 is exactly 0. Each element's bits depend on its value alone,
    not on the array's length, offset or stride.
    """
    np.tan(h, out=h)
    denom = h * h
    denom += 1.0
    h /= denom
    return h


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


# side of the square blocks `_transpose_inplace` swaps
_TRANSPOSE_BLOCK = 128


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal matrix from the QR factorisation of a Gaussian draw.

    Column signs are fixed from the R diagonal so the result is a
    deterministic function of the draw.

    The draw, LAPACK's factorisation and the result share one n x n buffer.
    One (n, n) draw fills it, and a transpose over itself, one square block
    at a time, leaves the draw in column-major order. dgeqrf and dorgqr run
    in place on it with the workspace each routine asks for, as
    `np.linalg.qr` runs them, and leave Q column-major; a second transpose
    makes it row-major. Q is that of `np.linalg.qr(draw)` bit for bit.
    """
    a = np.empty((n, n))
    rng.standard_normal(out=a)
    _transpose_inplace(a)
    tau = np.empty(n)
    _lapack("dgeqrf", n, n, a, n, tau)
    signs = np.sign(a.diagonal())  # R's diagonal, before dorgqr overwrites it
    signs[signs == 0] = 1.0
    _lapack("dorgqr", n, n, n, a, n, tau)
    _transpose_inplace(a)
    a *= signs
    return a


def _transpose_inplace(a: np.ndarray) -> None:
    """Transpose the square array a over itself: each diagonal block in
    place, each pair of blocks mirrored across the diagonal swapped, through
    temporaries of one block."""
    b = _TRANSPOSE_BLOCK
    for i in range(0, len(a), b):
        rows = slice(i, i + b)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + b, len(a), b):
            cols = slice(j, j + b)
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def _lapack(name: str, m: int, n: int, *args) -> None:
    """Call lapack_lite's `name` on an m x n matrix with the workspace its
    lwork = -1 query asks for (at least n), as numpy's linalg gufuncs do, so
    LAPACK blocks the same way."""
    routine = getattr(lapack_lite, name)
    work = np.empty(1)
    routine(m, n, *args, work, -1, 0)
    work = np.empty(max(1, n, int(work[0])))
    info = routine(m, n, *args, work, work.size, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {name} returned info {info}")
