import numpy as np
import pytest

from lsgo_hybrid.benchmarks import (
    conditioning_weights,
    oscillate,
    random_orthogonal,
    skew,
)
from lsgo_hybrid.benchmarks.transforms import oscillate_skew_inplace, sin_inplace


def test_oscillate_fixed_points():
    z = np.array([0.0, 1.0, -1.0])
    assert np.allclose(oscillate(z), z, atol=1e-12)


def test_oscillate_fixes_zero_and_plus_minus_one_exactly():
    out = oscillate(np.array([0.0, 1.0, -1.0]))
    assert np.array_equal(out, [0.0, 1.0, -1.0])


_SIN_POINTS = {
    "wide": lambda rng: rng.uniform(-1e4, 1e4, size=2_000_000),
    "narrow": lambda rng: rng.uniform(-100.0, 100.0, size=1_000_000),
    "tiny": lambda rng: rng.uniform(-1e-6, 1e-6, size=100_000),
    "half_pi_multiples": lambda rng: np.arange(-1909, 1910) * (np.pi / 2),  # to +-3000
}


@pytest.mark.parametrize("name", sorted(_SIN_POINTS))
def test_sin_inplace_is_within_a_few_ulp_of_np_sin(name):
    x = _SIN_POINTS[name](np.random.default_rng(11))
    ref = np.sin(x)
    err = np.abs(sin_inplace(x) - ref)
    assert err.max() <= 2.0**-51
    # relative error in ulp of np.sin(x), away from the zeros of sin
    away = np.abs(ref) > 1e-3
    assert np.all(err[away] <= 4.0 * np.spacing(np.abs(ref[away])))


def test_sin_inplace_keeps_zero_and_writes_in_place():
    x = np.array([0.0, -0.0, np.pi / 6])
    assert sin_inplace(x) is x
    assert np.array_equal(np.signbit(x[:2]), [False, True])
    assert x[0] == 0.0 and x[1] == 0.0
    assert x[2] == pytest.approx(0.5, abs=2.0**-52)


def test_oscillate_preserves_sign_and_monotone_on_positives():
    rng = np.random.default_rng(2)
    z = rng.uniform(-10, 10, size=200)
    out = oscillate(z)
    assert np.all(np.sign(out) == np.sign(z))
    pos = np.sort(np.abs(z[z != 0]))
    assert np.all(np.diff(oscillate(pos)) > 0)


def _skew_0_5_0(y, slope):
    """Version 0.5.0's skew: y^(1 + slope*sqrt(y)) on positives, as a power."""
    out = y.copy()
    pos = y > 0
    slope = np.broadcast_to(slope, y.shape)
    out[pos] = y[pos] ** (1.0 + slope[pos] * np.sqrt(y[pos]))
    return out


@pytest.mark.parametrize("beta", [0.0, 0.05, 0.1, 0.2])
def test_oscillate_skew_is_within_1e_13_of_the_power_composition(beta):
    # the kernel's slopes are beta*g_i with beta 0.2 and g_i in [0, 1]
    rng = np.random.default_rng(12)
    z = rng.uniform(-1e4, 1e4, size=(40, 1000))
    z[::2] *= 10.0 ** rng.uniform(-12, -3, size=(20, 1000))  # small |z| too
    slope = beta * rng.random(1000)
    ref = _skew_0_5_0(oscillate(z), slope)
    got = oscillate_skew_inplace(z.copy(), slope)
    assert np.array_equal(np.sign(got), np.sign(z))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_oscillate_skew_fixes_zero_plus_minus_one_and_the_rosenbrock_ones():
    slope = np.array([0.0, 0.2, 0.1, 0.2, 0.05])
    z = np.array([0.0, 0.0, 1.0, -1.0, -0.0])
    assert np.array_equal(oscillate_skew_inplace(z, slope), [0.0, 0.0, 1.0, -1.0, 0.0])
    # the conforming Rosenbrock chain's optimum is z = 1 at every index of
    # every block, with the slopes of the whole layout
    ones = np.ones((3, 91))
    slope = 0.2 * np.arange(91) / 90
    assert np.array_equal(oscillate_skew_inplace(ones.copy(), slope), ones)
    assert np.array_equal(oscillate_skew_inplace(np.ones(7), 0.0), np.ones(7))


def test_skew_fixed_points_and_negative_passthrough():
    z = np.array([0.0, 1.0, -3.7, -0.2])
    out = skew(z, 0.2)
    assert np.allclose(out[:2], [0.0, 1.0], atol=1e-12)
    # negative coordinates are untouched
    assert np.array_equal(out[2:], z[2:])


def test_skew_amplifies_large_positive_coordinates():
    z = np.array([4.0])
    # exponent grows with the coordinate index fraction; single coord -> 1+0
    assert skew(z, 0.2)[0] == pytest.approx(4.0)
    z = np.array([4.0, 4.0])
    out = skew(z, 0.2)
    assert out[0] == pytest.approx(4.0)
    assert out[1] == pytest.approx(4.0 ** (1.0 + 0.2 * np.sqrt(4.0)))


def test_conditioning_weights_endpoints():
    w = conditioning_weights(5, 10.0)
    assert w[0] == 1.0
    assert w[-1] == pytest.approx(np.sqrt(10.0))
    assert np.all(np.diff(w) > 0)
    assert np.array_equal(conditioning_weights(1, 10.0), np.ones(1))


def test_random_orthogonal_properties():
    rng = np.random.default_rng(3)
    for n in (2, 5, 17):
        q = random_orthogonal(n, rng)
        assert np.allclose(q @ q.T, np.eye(n), atol=1e-10)
        assert np.linalg.det(q) == pytest.approx(abs(np.linalg.det(q)), abs=2.0)
        v = rng.normal(size=n)
        assert np.linalg.norm(q @ v) == pytest.approx(np.linalg.norm(v))


def test_random_orthogonal_varies_with_stream():
    a = random_orthogonal(4, np.random.default_rng(1))
    b = random_orthogonal(4, np.random.default_rng(2))
    assert not np.allclose(a, b)
