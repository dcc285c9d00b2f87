import numpy as np
import pytest

from lsgo_hybrid.benchmarks import BOUNDS
from lsgo_hybrid.benchmarks.functions import (
    _DISPATCH,
    ackley,
    elliptic,
    elliptic_weights,
    rastrigin,
    rosenbrock,
    schwefel_12,
)
from lsgo_hybrid.benchmarks.instance import _FUNCTIONS


def _at(fn, z):
    return float(fn(np.asarray(z, dtype=float)))


def test_elliptic_weights_span_condition_number():
    w = elliptic_weights(5)
    assert w[0] == 1.0
    assert w[-1] == pytest.approx(1e6)
    assert np.all(np.diff(w) > 0)
    # geometric spacing in the exponent
    assert np.allclose(np.log10(w), 6.0 * np.arange(5) / 4.0)


def test_elliptic_hand_value():
    # D=3 weights are 1, 1e3, 1e6
    assert _at(elliptic, [1.0, 1.0, 1.0]) == pytest.approx(1001001.0)
    assert _at(elliptic, [2.0, 0.0, 0.0]) == pytest.approx(4.0)


def test_rastrigin_hand_values():
    assert _at(rastrigin, np.zeros(4)) == 0.0
    # cos(2*pi) = 1 so each unit coordinate contributes exactly 1
    assert _at(rastrigin, [1.0, 1.0]) == pytest.approx(2.0)


def test_ackley_zero_at_origin():
    assert _at(ackley, np.zeros(10)) == pytest.approx(0.0, abs=1e-12)


def test_ackley_positive_away_from_origin():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.uniform(-32, 32, size=8)
        if np.linalg.norm(z) > 1e-9:
            assert _at(ackley, z) > 0.0


def test_schwefel_prefix_sums():
    # prefix sums of (1,1,1) are (1,2,3)
    assert _at(schwefel_12, [1.0, 1.0, 1.0]) == pytest.approx(14.0)
    assert _at(schwefel_12, [2.0, -1.0]) == pytest.approx(5.0)


def test_rosenbrock_chain():
    assert _at(rosenbrock, np.ones(6)) == 0.0
    assert _at(rosenbrock, [0.0, 0.0]) == pytest.approx(1.0)
    assert _at(rosenbrock, [1.0, 2.0, 3.0]) == pytest.approx(201.0)


def test_all_bases_nonnegative_on_random_points():
    rng = np.random.default_rng(1)
    for name, fn in {"elliptic": elliptic, **_DISPATCH}.items():
        half = BOUNDS[name]
        for _ in range(10):
            z = rng.uniform(-half, half, size=6)
            assert _at(fn, z) >= 0.0


def test_every_base_is_used_by_a_function_id():
    used = {spec.base for spec in _FUNCTIONS.values()}
    assert set(BOUNDS) <= used
    assert set(_DISPATCH) <= used
