"""Tail probabilities for the chi-square and F distributions.

The chi-square tail at an integer number of degrees of freedom is a finite
sum; the F tail is the regularized incomplete beta function, by a Lentz
continued fraction. So the statistics layer needs no runtime beyond the
standard library. Accuracy is ~1e-13 relative, well inside the 1e-10
target the tests check against an independent oracle.
"""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta, modified Lentz
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # symmetry keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for a chi-square variable with df degrees of freedom, df a
    positive integer (Friedman's test passes k - 1).

    With h = x / 2 the tail is a finite sum: sum_{j < df/2} e^-h h^j / j!
    for even df, and erfc(sqrt h) + sum_{j=1}^{(df-1)/2} e^-h h^(j-1/2) /
    Gamma(j+1/2) for odd df, each term the previous one times h / j or
    h / (j + 1/2). The terms carry e^-h, so none exceeds 1. Accurate while
    e^-h is a normal double (x below about 1400).
    """
    if df < 1 or df % 1:
        raise ValueError(f"degrees of freedom must be a positive integer, not {df!r}")
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = x / 2.0
    if df % 2:
        head, a = math.erfc(math.sqrt(h)), 1.5
        term = 2.0 * math.sqrt(h / math.pi) * math.exp(-h)
    else:
        head, term, a = 0.0, math.exp(-h), 1.0
    total = 0.0
    for _ in range(int(df) // 2):
        total += term
        term *= h / a
        a += 1.0
    return head + total


def f_sf(x: float, dfn: float, dfd: float) -> float:
    """P(X > x) for an F variable with (dfn, dfd) degrees of freedom."""
    if dfn <= 0 or dfd <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0:
        return 1.0
    return beta_inc(dfd / 2.0, dfn / 2.0, dfd / (dfd + dfn * x))
