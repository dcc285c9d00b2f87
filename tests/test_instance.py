import copy
import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsgo_hybrid.benchmarks import (
    FUNCTION_IDS,
    conditioning_weights,
    from_descriptor,
    from_json,
    functions,
    make_instance,
    random_orthogonal,
)
from lsgo_hybrid.benchmarks import instance as instance_mod
from lsgo_hybrid.benchmarks.instance import G

DESK_DIM = 50


def _sin(x):
    """The evaluation's sine: the half-angle form over numpy's tan."""
    t = np.tan(0.5 * x)
    return (t + t) / (1.0 + t * t)


def _gradient(n):
    return np.arange(n) / (n - 1) if n > 1 else np.zeros(n)


def _oscillate_skew_masked(z, slope):
    """The evaluation's scalar maps: w = log|oscillate(z)|, then
    exp(w * (1 + slope * exp(w/2))) on positives and -exp(w) on negatives."""
    out = np.zeros_like(z)
    pos = z > 0
    neg = z < 0
    if pos.any():
        xhat = np.log(z[pos])
        w = xhat + 0.049 * (_sin(10.0 * xhat) + _sin(7.9 * xhat))
        out[pos] = np.exp(w * (1.0 + slope[pos] * np.exp(0.5 * w)))
    if neg.any():
        xhat = np.log(-z[neg])
        out[neg] = -np.exp(xhat + 0.049 * (_sin(5.5 * xhat) + _sin(3.1 * xhat)))
    return out


def _rotate_alone(rotation, v):
    """Row 0 of the kernel's product: v as the first of G rows, the rest zero."""
    rows = np.zeros((G, v.size))
    rows[0] = v
    return (rotation @ rows.T)[:, 0]


def _mapped_blocks(inst, x, scalar_maps):
    """(block, z) for every block, each shifted, rotated and mapped alone."""
    y = x - inst.shift if inst.shift is not None else x
    y = y[inst.permutation]
    parts = list(inst.subcomponents) + ([inst.tail] if inst.tail is not None else [])
    for p in parts:
        v = y[p.start : p.stop]
        if p.local_shift is not None:
            v = v - p.local_shift
        if p.rotation is not None:
            v = _rotate_alone(p.rotation, v)
        yield p, scalar_maps(inst, v)


def _maps(inst, v):
    if not inst.irregularity:
        return v
    return _oscillate_skew_masked(v, inst.asymmetry_beta * _gradient(v.size))


def _reference_evaluate(inst, x):
    """Block-by-block evaluation: every block shifted, rotated and mapped alone,
    each base function a row sum, and for the elliptic base one weighted sum
    of z*z over all blocks."""
    alpha = inst.conditioning_alpha
    if inst.base == "elliptic":
        zs, ws = [], []
        for p, v in _mapped_blocks(inst, x, _maps):
            zs.append(v)
            ws.append(p.weight * functions.elliptic_weights(p.size)
                      * conditioning_weights(p.size, alpha) ** 2)
        z = np.concatenate(zs)
        return (z * z * np.concatenate(ws)).sum() - inst._offset
    total = 0.0
    for p, v in _mapped_blocks(inst, x, _maps):
        if alpha != 1.0:
            v = conditioning_weights(p.size, alpha) * v
        total += p.weight * getattr(functions, inst.base)(v)
    return total - inst._offset


def _oscillate_masked(z):
    out = np.zeros_like(z)
    pos = z > 0
    neg = z < 0
    if pos.any():
        xhat = np.log(z[pos])
        out[pos] = np.exp(xhat + 0.049 * (_sin(10.0 * xhat) + _sin(7.9 * xhat)))
    if neg.any():
        xhat = np.log(-z[neg])
        out[neg] = -np.exp(xhat + 0.049 * (_sin(5.5 * xhat) + _sin(3.1 * xhat)))
    return out


def _maps_0_5_0(inst, v):
    """Version 0.5.0's scalar maps: oscillate, then the power-form skew."""
    if inst.irregularity:
        v = _oscillate_masked(v)
    if inst.asymmetry_beta:
        pos = v > 0
        v = v.copy()
        v[pos] **= 1.0 + inst.asymmetry_beta * _gradient(v.size)[pos] * np.sqrt(v[pos])
    return v


def _reference_evaluate_0_5_0(inst, x):
    """Version 0.5.0's evaluation, block by block with every base a row sum."""
    total = 0.0
    for p, v in _mapped_blocks(inst, x, _maps_0_5_0):
        if inst.conditioning_alpha != 1.0:
            v = conditioning_weights(p.size, inst.conditioning_alpha) * v
        total += p.weight * getattr(functions, inst.base)(v)
    return total - inst._offset


_EXACT_CASES = [(fid, dim) for dim in (50, 1000) for fid in FUNCTION_IDS]


def _reference_points(inst, dim, fid):
    rng = np.random.default_rng([dim, int(fid[1:])])
    opt = inst.optimum_preimage
    points = list(rng.uniform(*inst.bounds, size=(24, dim))) + [opt]
    # near the optimum z has small coordinates of both signs, and exact zeros
    points += [opt + rng.normal(size=dim) * 1e-3 for _ in range(4)]
    return points


@pytest.mark.parametrize("fid,dim", _EXACT_CASES)
def test_evaluate_equals_block_by_block_reference_exactly(fid, dim):
    inst = make_instance(fid, dim, 7)
    for x in _reference_points(inst, dim, fid):
        assert inst.evaluate(x) == _reference_evaluate(inst, x)


@pytest.mark.parametrize("fid,dim", _EXACT_CASES)
def test_evaluate_stays_within_1e_12_of_version_0_5_0(fid, dim):
    # 0.6.0 redefined the skew in log space and the elliptic value as one
    # weighted sum. Every z fed to a base function stays within 1e-12 of 0.5.0's,
    # and so does the value, except where the value magnifies the last bits of
    # z: Ackley's cos(2*pi*z) at skewed coordinates in the tens of thousands,
    # and the rounding residue (about 1e-24 for F12) at the optimum preimage.
    inst = make_instance(fid, dim, 7)
    opt = inst.optimum_preimage
    for x in _reference_points(inst, dim, fid):
        for (_, z), (_, z_0_5_0) in zip(_mapped_blocks(inst, x, _maps),
                                        _mapped_blocks(inst, x, _maps_0_5_0)):
            np.testing.assert_allclose(z, z_0_5_0, rtol=1e-12, atol=0.0)
        if inst.base != "ackley" and not np.array_equal(x, opt):
            np.testing.assert_allclose(inst.evaluate(x),
                                       _reference_evaluate_0_5_0(inst, x),
                                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_evaluate_leaves_x_alone_and_repeats(fid):
    # evaluation writes only into its own buffers
    inst = make_instance(fid, DESK_DIM, 5)
    x = np.random.default_rng(int(fid[1:])).uniform(*inst.bounds, size=DESK_DIM)
    x.setflags(write=False)
    kept = x.copy()
    first = inst.evaluate(x)
    assert np.array_equal(x, kept)
    assert inst.evaluate(x) == first
    assert inst.evaluate(kept) == first


@pytest.mark.parametrize("fid", ["F1", "F4", "F7", "F8", "F11", "F13", "F15"])
def test_shift_maps_to_zero(fid):
    # elliptic and Schwefel 1.2 are exactly 0 only when every z is 0
    inst = make_instance(fid, DESK_DIM, 8)
    assert inst.evaluate(inst.shift) == 0.0


def _edit(*path, to):
    """The corruption that replaces the descriptor entry at path by
    to(entry); the empty path replaces the whole descriptor."""
    def corrupt(desc):
        if not path:
            return to(desc)
        *outer, key = path
        node = desc
        for k in outer:
            node = node[k]
        node[key] = to(node[key])
        return desc
    return corrupt


def _drop(key):
    def corrupt(desc):
        del desc[key]
        return desc
    return corrupt


def _plus_one(n):
    return n + 1


def _differs(field):
    return f"descriptor {field} differs from that of make_instance"


def _flip_last(hex_digest):
    return hex_digest[:-1] + ("0" if hex_digest[-1] != "0" else "1")


@pytest.mark.parametrize("fid, corrupt, message", [
    ("F8", _edit("irregularity", to=lambda _: "no"), _differs("irregularity")),
    ("F8", _edit("rotated", to=lambda _: "false"), _differs("rotated")),
    ("F8", _edit("irregularity", to=lambda _: False), _differs("irregularity")),
    ("F4", _edit("conditioning_alpha", to=lambda _: 1.0), _differs("conditioning_alpha")),
    ("F8", _edit("rotated", to=lambda _: False), _differs("rotated")),
    ("F1", _edit("rotated", to=lambda _: True), _differs("rotated")),
    ("F1", _edit("bounds", to=lambda _: [-5.0, 5.0]), _differs("bounds")),
    ("F8", _edit("format", to=lambda _: "lsgo-hybrid-instance/1"), _differs("format")),
    ("F8", _edit("weights", 2, to=lambda _: -1.0), _differs("weights")),
    ("F8", _edit("weights", 2, to=lambda _: 0.0), _differs("weights")),
    ("F8", _edit("weights", 2, to=lambda _: float("nan")), _differs("weights")),
    ("F4", _edit("weights", 0, to=lambda _: float("inf")), _differs("weights")),
    ("F8", _edit("weights", to=lambda weights: weights[:-1]), _differs("weights")),
    ("F8", _edit("layout", to=lambda layout: layout[:-1]), _differs("layout")),
    ("F4", _edit("tail", to=lambda _: None), _differs("tail")),
    # the first block then overlaps its neighbour, the last one leaves [0, 50)
    ("F8", _edit("layout", 0, 1, to=_plus_one), _differs("layout")),
    ("F8", _edit("layout", -1, 1, to=_plus_one), _differs("layout")),
    ("F4", _edit("tail", 0, to=_plus_one), _differs("tail")),
    ("F13", _edit("layout", 0, 0, to=lambda _: -1), _differs("layout")),
    ("F8", _edit("layout", to=lambda layout: [
        {"start": start, "size": size} for start, size in layout]), _differs("layout")),
    ("F8", _edit("digest", "arrays", to=_flip_last), _differs("digest")),
    ("F14", _edit("digest", "arrays", to=_flip_last), _differs("digest")),
    ("F8", _edit("digest", "rotations", to=_flip_last), _differs("digest")),
    ("F8", _edit("digest", to=lambda digest: digest["arrays"]), _differs("digest")),
    ("F8", _drop("digest"), "descriptor has no digest field"),
    ("F8", _drop("seed"), "descriptor has no seed field"),
    ("F8", _drop("layout"), "descriptor has no layout field"),
    ("F4", _drop("tail"), "descriptor has no tail field"),
    ("F8", _edit(to=lambda _: []), "descriptor must be a JSON object, not list"),
    ("F8", _edit(to=lambda _: None), "descriptor must be a JSON object, not NoneType"),
    ("F8", _edit("seed", to=lambda _: 3.9),
     "descriptor seed must be of type int, got 3.9"),
    # seed 4 has the layout of seed 3 but its own weights and arrays
    ("F8", _edit("seed", to=_plus_one),
     r"descriptor weights differs from that of make_instance\('F8', 50, 4\)"),
    ("F14", _edit("seed", to=_plus_one),
     r"descriptor weights differs from that of make_instance\('F14', 50, 4\)"),
    ("F8", _edit("function_id", to=lambda fid: [fid]),
     r"descriptor function_id must be of type str, got \['F8'\]"),
    ("F8", _edit("dimension", to=lambda _: True),
     "descriptor dimension must be of type int, got True"),
    ("F8", lambda desc: {**desc, "comment": "hand-edited"},
     "descriptor has an unknown field 'comment'"),
    # a field of the first descriptor format
    ("F8", lambda desc: {**desc, "permutation": ""},
     "descriptor has an unknown field 'permutation'"),
], ids=["string-irregularity", "string-rotated", "table-irregularity",
        "table-conditioning-alpha", "table-rotated", "rotated-separable", "table-bounds",
        "first-format", "negative-weight", "zero-weight", "nan-weight", "infinite-weight",
        "missing-weight", "missing-block", "missing-tail", "overlapping-block",
        "block-past-dimension", "tail-past-dimension", "negative-block-start",
        "block-objects", "arrays-digest", "chain-arrays-digest", "rotations-digest",
        "digest-string", "missing-digest", "missing-seed", "missing-layout",
        "missing-tail-field", "list", "null", "fractional-seed", "another-seed",
        "another-chain-seed", "list-function-id", "bool-dimension", "unknown-field",
        "first-format-field"])
def test_descriptor_rejects_malformed_field(fid, corrupt, message):
    desc = corrupt(make_instance(fid, DESK_DIM, 3).to_descriptor())
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps(desc))


@pytest.mark.parametrize("fid", ["F4", "F8", "F13", "F15"])
@pytest.mark.parametrize("dimension", [2000, DESK_DIM + 1, 10, 10**30],
                         ids=["dimension-2000", "dimension-plus-one", "dimension-10",
                              "dimension-1e30"])
def test_an_edited_dimension_is_refused_before_building(
        monkeypatch, fid, dimension):
    desc = make_instance(fid, DESK_DIM, 3).to_descriptor()
    desc["dimension"] = dimension

    def build(*args):
        raise AssertionError("from_descriptor built an instance")

    monkeypatch.setattr(instance_mod, "make_instance", build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"descriptor (layout|tail) differs from "
                                             rf"that of make_instance\('{fid}', {dimension}, 3\)"):
            from_json(json.dumps(desc))


@functools.cache
def _fuzz_descriptor(fid):
    return make_instance(fid, DESK_DIM, 5).to_descriptor()


def _paths(node, path=()):
    """The path of every entry of a descriptor, the empty path first."""
    yield path
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _paths(node[key], path + (key,))


# arbitrary JSON values; integers stay small, so that a mutated dimension
# builds a small instance
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_descriptor_is_refused_or_round_trips(data):
    fid = data.draw(st.sampled_from(["F4", "F8", "F14"]))
    desc = copy.deepcopy(_fuzz_descriptor(fid))
    path = data.draw(st.sampled_from(list(_paths(desc))))
    mutated = _edit(*path, to=lambda _: data.draw(_JSON_VALUES))(desc)
    try:
        clone = from_descriptor(mutated)
    except ValueError:
        return
    assert clone.to_descriptor() == mutated


def test_the_oscillation_and_skew_maps_come_together():
    # the kernel runs both as one pass, keyed on the oscillation map
    for fid in FUNCTION_IDS:
        inst = make_instance(fid, DESK_DIM, 0)
        assert inst.irregularity == (inst.asymmetry_beta != 0.0), fid


def test_function_id_catalogue():
    assert FUNCTION_IDS == tuple(f"F{i}" for i in range(1, 16))


@pytest.mark.parametrize("fid", FUNCTION_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimum_preimage_evaluates_to_zero(fid, seed):
    inst = make_instance(fid, DESK_DIM, seed)
    value = inst.evaluate(inst.optimum_preimage)
    assert abs(value) <= 1e-6


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_permutation_is_bijection(fid):
    inst = make_instance(fid, DESK_DIM, 5)
    assert np.array_equal(np.sort(inst.permutation), np.arange(DESK_DIM))


@pytest.mark.parametrize("fid", ["F4", "F8", "F13", "F15"])
def test_rotations_are_orthonormal(fid):
    inst = make_instance(fid, DESK_DIM, 4)
    rng = np.random.default_rng(0)
    saw_rotation = False
    for sub in inst.subcomponents:
        if sub.rotation is None:
            continue
        saw_rotation = True
        q = sub.rotation
        assert np.allclose(q @ q.T, np.eye(sub.size), atol=1e-9)
        v = rng.normal(size=sub.size)
        assert abs(np.linalg.norm(q @ v) - np.linalg.norm(v)) <= 1e-9
    assert saw_rotation


def test_sphere_rotation_invariance():
    rng = np.random.default_rng(11)
    for n in (5, 20, 50):
        q = random_orthogonal(n, rng)
        for _ in range(5):
            v = rng.uniform(-100, 100, size=n)
            w = q @ v
            assert w @ w == pytest.approx(v @ v, rel=1e-9)


def test_canonical_block_sizes_at_dimension_1000():
    canonical = [50, 50, 25, 25, 100, 100, 200]
    tail_style = make_instance("F4", 1000, 1)
    assert [s.size for s in tail_style.subcomponents] == canonical
    assert tail_style.tail is not None
    assert tail_style.tail.size == 450
    assert tail_style.tail.rotation is None

    full_style = make_instance("F8", 1000, 1)
    assert [s.size for s in full_style.subcomponents] == [91, 91, 45, 45, 182, 182, 364]
    assert full_style.tail is None
    assert sum(s.size for s in full_style.subcomponents) == 1000


def test_desk_scale_layouts():
    partial = make_instance("F8", 50, 2)
    assert [s.size for s in partial.subcomponents] == [5, 5, 5, 5, 9, 9, 12]

    tail_style = make_instance("F4", 50, 2)
    assert [s.size for s in tail_style.subcomponents] == [6, 5, 5, 5, 7]
    assert tail_style.tail.size == 22

    overlap = make_instance("F13", 50, 2)
    assert [s.size for s in overlap.subcomponents] == [5, 5, 5, 5, 10, 10, 16]
    assert [s.start for s in overlap.subcomponents] == [0, 4, 8, 12, 16, 25, 34]


def test_overlap_geometry_at_dimension_1000():
    inst = make_instance("F13", 1000, 3)
    subs = inst.subcomponents
    width = (1000 // len(subs)) // 10
    assert width == 14
    for a, b in zip(subs, subs[1:]):
        assert b.start == a.start + a.size - width
    assert subs[-1].start + subs[-1].size == 1000
    assert sum(s.size for s in subs) == 1000 + (len(subs) - 1) * width


def test_min_block_size_holds_everywhere():
    for fid in FUNCTION_IDS:
        for d in (10, 23, 50, 137):
            inst = make_instance(fid, d, 1)
            for sub in inst.subcomponents:
                assert sub.size >= 5 or len(inst.subcomponents) == 1
            covered = sum(s.size for s in inst.subcomponents)
            if inst.tail is not None:
                covered += inst.tail.size
            if not inst.family.startswith("overlap"):
                assert covered == d


_FAMILIES = sorted({instance_mod._FUNCTIONS[fid].family for fid in FUNCTION_IDS})

# past 2**53 a float64 quota loses the units digit; the first two dimensions
# already have remainders that float64 orders wrongly; 2**63 - 1 is the largest
# dimension a layout takes
_HUGE_DIMENSIONS = (3835490887220348, 3939343538190936, 2**53 + 1, 10**17 + 3,
                    10**18, 2**63 - 1)


@pytest.mark.parametrize("family", _FAMILIES)
def test_layout_tiles_every_dimension(family):
    for d in [*range(instance_mod.MIN_DIMENSION, 5001), *_HUGE_DIMENSIONS]:
        blocks, tail = instance_mod._layout(family, d)
        starts = [start for start, _size in blocks]
        sizes = [size for _start, size in blocks]
        assert starts[0] == 0, (family, d)
        if len(blocks) > 1:
            assert min(sizes) >= instance_mod._MIN_SIZE, (family, d)
        if family.startswith("overlap"):
            assert tail is None
            overlap = sizes[0] - starts[1]
            assert 1 <= overlap < min(sizes), (family, d)
            steps = [b - a for a, b in zip(starts, starts[1:])]
            assert steps == [s - overlap for s in sizes[:-1]], (family, d)
            assert starts[-1] + sizes[-1] == d, (family, d)
            continue
        ends = [a + s for a, s in zip(starts, sizes)]
        assert starts[1:] == ends[:-1], (family, d)
        if family == "partial_tail":
            assert tail is not None and tail[0] == ends[-1], (family, d)
            ends.append(tail[0] + tail[1])
        else:
            assert tail is None
        assert ends[-1] == d, (family, d)


@pytest.mark.parametrize("family", [f for f in _FAMILIES if "separable" not in f])
def test_huge_layouts_give_the_leftover_to_the_largest_remainders(family):
    # far above the minimum block size the sizes are the largest-remainder
    # shares of their sum, the tiled span, in the canonical proportions
    for d in _HUGE_DIMENSIONS:
        sizes = [size for _start, size in instance_mod._layout(family, d)[0]]
        weights = instance_mod._CANON[:len(sizes)]
        shares = [divmod(sum(sizes) * w, sum(weights)) for w in weights]
        assert all(size - q in (0, 1) for size, (q, _r) in zip(sizes, shares)), (family, d)
        up = [r for size, (q, r) in zip(sizes, shares) if size > q]
        down = [r for size, (q, r) in zip(sizes, shares) if size == q]
        assert not up or not down or min(up) >= max(down), (family, d)


# sha256 of the reprs of `_layout(family, d)`, one line per d in 10..5000, as
# release 0.21.0 computed them
_LAYOUT_DIGESTS = {
    "nonseparable": "f9cfe4ac8ae65ad746e19fa84d76b5a594624c9bc66936cc3a52752b7a5fbeaf",
    "overlap_conflicting": "eef1fd92b6311aca93be15ab755405d4f10daa106cc9c6636c24962b9a8589c5",
    "overlap_conforming": "eef1fd92b6311aca93be15ab755405d4f10daa106cc9c6636c24962b9a8589c5",
    "partial": "310c4f27fc11dd02233dad981d36d3292b85a946e96d7222108e79181a4dc028",
    "partial_tail": "eb66194576f5ebec9075e44c37c6589daab006fff8694d387857f958fbea1dc9",
    "separable": "f9cfe4ac8ae65ad746e19fa84d76b5a594624c9bc66936cc3a52752b7a5fbeaf",
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_layouts_are_pinned_at_every_dimension_up_to_5000(family):
    text = "\n".join(repr(instance_mod._layout(family, d)) for d in range(10, 5001))
    assert hashlib.sha256(text.encode()).hexdigest() == _LAYOUT_DIGESTS[family]


@pytest.mark.parametrize("d", [5, 9, 0, -3])
def test_a_dimension_below_the_minimum_is_refused_by_name(d):
    for family in _FAMILIES:
        with pytest.raises(ValueError, match=rf"^dimension must be at least 10, got {d}$"):
            instance_mod._layout(family, d)
    with pytest.raises(ValueError, match=rf"^dimension must be at least 10, got {d}$"):
        make_instance("F4", d, 0)


@pytest.mark.filterwarnings("error")
def test_a_dimension_past_a_64_bit_index_is_refused_by_name():
    for fid in ("F1", "F4", "F8", "F13", "F15"):
        with pytest.raises(ValueError, match=rf"^dimension {10**30} does not fit a 64-bit index$"):
            make_instance(fid, 10**30, 0)


@pytest.mark.parametrize("dimension, seed, shown", [
    (10.7, 3.9, "10.7"), (np.float64(12.5), 0, "12.5"), (50, 2.0, "2.0")])
def test_a_dimension_or_seed_that_is_not_an_integer_is_refused_by_value(dimension, seed,
                                                                        shown):
    with pytest.raises(ValueError, match=r"^dimension and seed must be integers") as err:
        make_instance("F1", dimension, seed)
    assert shown in str(err.value)


def test_numpy_integers_build_the_instance_of_python_integers():
    built = make_instance("F8", np.int64(50), np.int64(3))
    assert type(built.dimension) is int and type(built.seed) is int
    assert built.to_descriptor() == make_instance("F8", 50, 3).to_descriptor()


def test_bounds_follow_the_base_function():
    assert make_instance("F1", 50, 0).bounds == (-100.0, 100.0)
    assert make_instance("F2", 50, 0).bounds == (-5.0, 5.0)
    assert make_instance("F3", 50, 0).bounds == (-32.0, 32.0)
    assert make_instance("F5", 50, 0).bounds == (-5.0, 5.0)
    assert make_instance("F6", 50, 0).bounds == (-32.0, 32.0)
    assert make_instance("F12", 50, 0).bounds == (-100.0, 100.0)


def test_shift_stays_in_central_band():
    for fid, fraction in (("F1", 0.8), ("F12", 0.8)):
        for seed in range(5):
            inst = make_instance(fid, 40, seed)
            half = inst.bounds[1]
            assert np.all(np.abs(inst.shift) <= fraction * half + 1e-12)
    # conflicting-overlap instances use tighter per-block shifts
    for seed in range(5):
        inst = make_instance("F14", 40, seed)
        half = inst.bounds[1]
        for sub in inst.subcomponents:
            assert np.all(np.abs(sub.local_shift) <= 0.5 * half + 1e-12)


def test_separable_functions_are_single_unrotated_block():
    for fid in ("F1", "F2", "F3"):
        inst = make_instance(fid, 50, 9)
        assert len(inst.subcomponents) == 1
        sub = inst.subcomponents[0]
        assert sub.rotation is None
        assert sub.weight == 1.0
        assert inst.tail is None


def test_nonseparable_is_single_rotated_block():
    inst = make_instance("F15", 50, 9)
    assert len(inst.subcomponents) == 1
    assert inst.subcomponents[0].rotation is not None
    assert inst.subcomponents[0].weight == 1.0


def test_multi_block_weights_are_lognormal_draws():
    inst = make_instance("F8", 200, 9)
    weights = np.array([s.weight for s in inst.subcomponents])
    assert np.all(weights > 0)
    assert len(np.unique(weights)) == len(weights)


def test_chain_overlap_optimum_is_shift_plus_one():
    inst = make_instance("F12", 50, 6)
    assert all(s.rotation is None for s in inst.subcomponents)
    assert np.allclose(inst.optimum_preimage, inst.shift + 1.0)


def test_conflicting_overlap_is_locally_minimal_at_preimage():
    inst = make_instance("F14", 50, 6)
    opt = inst.optimum_preimage
    base = inst.evaluate(opt)
    assert base >= -1e-6
    rng = np.random.default_rng(0)
    for _ in range(20):
        step = rng.normal(size=inst.dimension) * 1e-3
        assert inst.evaluate(opt + step) >= base - 1e-9


def test_descriptor_round_trip_preserves_evaluations():
    rng = np.random.default_rng(13)
    for fid in ("F1", "F4", "F8", "F12", "F14", "F15"):
        inst = make_instance(fid, 30, 17)
        clone = from_json(inst.to_json())
        lo, hi = inst.bounds
        for _ in range(20):
            x = rng.uniform(lo, hi, size=30)
            assert clone.evaluate(x) == inst.evaluate(x)


@pytest.mark.parametrize("fid, dim", [(fid, DESK_DIM) for fid in FUNCTION_IDS]
                         + [("F8", 1000), ("F14", 1000), ("F15", 1000)])
def test_from_json_rebuilds_the_same_bits(fid, dim):
    inst = make_instance(fid, dim, 0)
    text = inst.to_json()
    clone = from_json(text)
    assert clone.to_json() == text
    x = np.random.default_rng(4).uniform(*inst.bounds, size=(2 * G + 3, dim))
    assert np.array_equal(clone.evaluate_batch(x), inst.evaluate_batch(x))


@pytest.mark.parametrize("fid", ["F8", "F14"])
def test_digest_separates_the_generated_arrays_from_the_rotations(fid):
    inst = make_instance(fid, DESK_DIM, 6)
    digest = inst.digest()
    assert digest == make_instance(fid, DESK_DIM, 6).digest()
    edits = [("permutation", lambda dup: setattr(dup, "permutation", dup.permutation[::-1])),
             ("weight", lambda dup: setattr(dup.subcomponents[-1], "weight", 1.0)),
             ("rotation", lambda dup: setattr(dup.subcomponents[-1], "rotation",
                                              -dup.subcomponents[-1].rotation))]
    if inst.shift is not None:
        edits.append(("shift", lambda dup: setattr(dup, "shift", dup.shift + 1.0)))
    else:
        edits.append(("local shift", lambda dup: setattr(
            dup.subcomponents[0], "local_shift", dup.subcomponents[0].local_shift + 1.0)))
    for name, edit in edits:
        dup = copy.deepcopy(inst)
        edit(dup)
        changed = dup.digest()
        part = "rotations" if name == "rotation" else "arrays"
        other = "arrays" if part == "rotations" else "rotations"
        assert changed[part] != digest[part], name
        assert changed[other] == digest[other], name


_SRC = Path(instance_mod.__file__).resolve().parents[2]


def _python(code, threads, stdin=None):
    """stdout of `code` run by a fresh interpreter at a BLAS thread count."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], input=stdin, env=env, text=True,
                          capture_output=True, check=True).stdout


def test_a_descriptor_from_another_blas_thread_count_is_refused():
    # F15's 1000-row QR rounds differently at one and two OpenBLAS threads
    text = _python("from lsgo_hybrid import make_instance\n"
                   "print(make_instance('F15', 1000, 0).to_json())", threads=2)
    report = json.loads(_python(
        "import json, sys\n"
        "from lsgo_hybrid import from_json, make_instance\n"
        "text = sys.stdin.read()\n"
        "report = {'digest': make_instance('F15', 1000, 0).digest()}\n"
        "try:\n"
        "    from_json(text)\n"
        "except ValueError as exc:\n"
        "    report['error'] = str(exc)\n"
        "print(json.dumps(report))", threads=1, stdin=text))
    written = json.loads(text)["digest"]
    assert report["digest"]["arrays"] == written["arrays"]
    if report["digest"]["rotations"] == written["rotations"]:
        pytest.skip("this machine builds F15's D=1000 rotations with the same bits at "
                    "one and two BLAS threads")
    assert report["error"] == ("descriptor digest differs from that of "
                               "make_instance('F15', 1000, 0)")


@pytest.mark.parametrize("dim, seed", [(10, 20), (20, 3), (50, 1), (100, 3), (1000, 2)])
def test_conflicting_chain_descriptor_round_trips_exactly(dim, seed):
    # instances whose local shifts were shrunk to fit the box
    inst = make_instance("F14", dim, seed)
    desc = inst.to_descriptor()
    clone = from_descriptor(desc)
    assert clone.to_descriptor() == desc
    rng = np.random.default_rng(seed)
    lo, hi = inst.bounds
    for x in [inst.optimum_preimage, *rng.uniform(lo, hi, size=(3, dim))]:
        assert clone.evaluate(x) == inst.evaluate(x)


@pytest.mark.parametrize("seed, shrunk", [(3, False), (0, True), (10, True)])
def test_conflicting_chain_is_solved_once_unless_shrunk(monkeypatch, seed, shrunk):
    # generation solves the least-squares problem to decide the shrink, and
    # again only if the local shifts were shrunk; the constructor never
    # solves. A descriptor rebuild is a generation, so it solves as often
    solve = instance_mod._conflict_least_squares
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(instance_mod, "_conflict_least_squares", counting)
    inst = make_instance("F14", DESK_DIM, seed)
    assert len(calls) == (2 if shrunk else 1)
    calls.clear()
    clone = from_descriptor(inst.to_descriptor())
    assert len(calls) == (2 if shrunk else 1)
    assert clone.to_descriptor() == inst.to_descriptor()
    assert np.array_equal(clone.optimum_preimage, inst.optimum_preimage)
    assert clone._offset == inst._offset


def test_same_seed_same_instance_different_seed_different():
    a = make_instance("F8", 50, 21)
    b = make_instance("F8", 50, 21)
    c = make_instance("F8", 50, 22)
    x = np.random.default_rng(1).uniform(-100, 100, size=50)
    assert a.evaluate(x) == b.evaluate(x)
    assert not np.array_equal(a.shift, c.shift)


def test_eval_count_and_fresh_copy():
    inst = make_instance("F1", 50, 0)
    before = inst.eval_count
    inst.evaluate(np.zeros(50))
    inst(np.zeros(50))
    assert inst.eval_count == before + 2
    dup = inst.fresh_copy()
    assert dup.eval_count == 0
    assert dup.evaluate(np.zeros(50)) == inst.evaluate(np.zeros(50))
    assert inst.eval_count == before + 3


def _arrays(inst):
    parts = (inst, *inst.subcomponents, *([inst.tail] if inst.tail else []))
    return [v for part in parts for v in vars(part).values()
            if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("fid", ["F4", "F5", "F14", "F15"])
@pytest.mark.parametrize("pickled", [False, True])
def test_fresh_copy_shares_read_only_arrays_with_its_own_counter(fid, pickled):
    inst = make_instance(fid, DESK_DIM, 9)
    if pickled:  # as run_batch sends it to a worker
        inst = pickle.loads(pickle.dumps(inst))
    dup = inst.fresh_copy()
    rotation = inst.subcomponents[0].rotation
    assert np.shares_memory(dup.subcomponents[0].rotation, rotation)
    assert all(a is b for a, b in zip(_arrays(dup), _arrays(inst)))
    for a in _arrays(dup):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    x = np.random.default_rng(2).uniform(-5, 5, size=(20, DESK_DIM))
    assert np.array_equal(dup.evaluate_batch(x), inst.evaluate_batch(x))
    dup.evaluate(x[0])
    assert (dup.eval_count, inst.eval_count) == (21, 20)
    assert inst.fresh_copy().eval_count == 0


def test_shape_and_domain_errors():
    inst = make_instance("F1", 50, 0)
    with pytest.raises(ValueError, match="length 50"):
        inst.evaluate(np.zeros(49))
    with pytest.raises(ValueError):
        make_instance("F16", 50, 0)
    with pytest.raises(ValueError):
        make_instance("F1", 9, 0)
