import base64

import numpy as np
import pytest

from lsgo_hybrid.benchmarks import (
    FUNCTION_IDS,
    conditioning_weights,
    eval_base,
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
        total += p.weight * getattr(functions, p.base)(v)
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
        total += p.weight * getattr(functions, p.base)(v)
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


def _encode(a):
    return base64.b64encode(np.ascontiguousarray(a).tobytes()).decode("ascii")


def test_descriptor_rejects_bad_permutation():
    desc = make_instance("F8", DESK_DIM, 3).to_descriptor()
    desc["permutation"] = _encode(np.zeros(DESK_DIM, dtype=np.int64))
    with pytest.raises(ValueError, match="permutation"):
        from_descriptor(desc)


def test_descriptor_rejects_coverage_gap():
    desc = make_instance("F8", DESK_DIM, 3).to_descriptor()
    desc["subcomponents"].pop()
    with pytest.raises(ValueError, match="cover every coordinate exactly once"):
        from_descriptor(desc)
    desc = make_instance("F4", DESK_DIM, 3).to_descriptor()
    desc["tail"] = None
    with pytest.raises(ValueError, match="cover every coordinate exactly once"):
        from_descriptor(desc)


def test_descriptor_rejects_wrong_block_size():
    desc = make_instance("F8", DESK_DIM, 3).to_descriptor()
    desc["subcomponents"][0]["size"] += 1  # now overlaps its neighbour
    with pytest.raises(ValueError, match="covered 2 times"):
        from_descriptor(desc)
    desc = make_instance("F8", DESK_DIM, 3).to_descriptor()
    desc["subcomponents"][-1]["size"] += 1
    with pytest.raises(ValueError, match=r"leaves \[0, 50\)"):
        from_descriptor(desc)


def test_descriptor_rejects_span_outside_dimension():
    desc = make_instance("F4", DESK_DIM, 3).to_descriptor()
    desc["tail"]["start"] += 1
    with pytest.raises(ValueError, match=r"leaves \[0, 50\)"):
        from_descriptor(desc)
    desc = make_instance("F13", DESK_DIM, 3).to_descriptor()
    desc["subcomponents"][0]["start"] = -1
    with pytest.raises(ValueError, match=r"leaves \[0, 50\)"):
        from_descriptor(desc)


def test_descriptor_rejects_shift_length_mismatch():
    inst = make_instance("F8", DESK_DIM, 3)
    desc = inst.to_descriptor()
    desc["shift"] = _encode(inst.shift[:-1])
    with pytest.raises(ValueError, match="shift has 49 values"):
        from_descriptor(desc)
    inst = make_instance("F14", DESK_DIM, 3)
    desc = inst.to_descriptor()
    desc["subcomponents"][1]["shift"] = _encode(inst.subcomponents[1].local_shift[1:])
    with pytest.raises(ValueError, match="local shift of 4 values for 5 coordinates"):
        from_descriptor(desc)
    desc["subcomponents"][1]["shift"] = None
    with pytest.raises(ValueError, match="has no local shift"):
        from_descriptor(desc)


def _truncate(text):
    # drop one 4-character base64 group: valid base64, 3 bytes short
    return text[:-8] + text[-4:]


@pytest.mark.parametrize("fid, path, corrupt, message", [
    ("F8", ("permutation",), _truncate, "descriptor permutation has 397 bytes"),
    ("F8", ("shift",), _truncate, "descriptor shift has 397 bytes"),
    ("F14", ("subcomponents", 1, "shift"), _truncate,
     "descriptor subcomponent 1 shift has 37 bytes"),
    ("F8", ("irregularity",), lambda _: "no",
     "irregularity must be true or false, got 'no'"),
    ("F8", ("subcomponents", 0, "rotated"), lambda _: "false",
     "subcomponent 0 rotated must be true or false"),
    ("F8", ("irregularity",), lambda _: False,
     "descriptor irregularity is False, but F8 has True"),
    ("F4", ("conditioning_alpha",), lambda _: 1.0,
     "descriptor conditioning_alpha is 1.0, but F4 has 10.0"),
    ("F8", ("subcomponents", 0, "rotated"), lambda _: False,
     "descriptor subcomponent 0 rotated is False, but F8 has True"),
    ("F1", ("bounds",), lambda _: [-5.0, 5.0],
     r"descriptor bounds is \[-5.0, 5.0\], but F1 has \[-100.0, 100.0\]"),
], ids=["truncated-permutation", "truncated-shift", "truncated-local-shift",
        "string-irregularity", "string-rotated", "table-irregularity",
        "table-conditioning-alpha", "table-rotated", "table-bounds"])
def test_descriptor_rejects_malformed_field(fid, path, corrupt, message):
    desc = make_instance(fid, DESK_DIM, 3).to_descriptor()
    *outer, key = path
    node = desc
    for k in outer:
        node = node[k]
    node[key] = corrupt(node[key])
    with pytest.raises(ValueError, match=message):
        from_descriptor(desc)


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
            assert eval_base("sphere", q @ v) == pytest.approx(
                eval_base("sphere", v), rel=1e-9
            )


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
    # generation solves the least-squares problem to decide the shrink; the
    # constructor reuses that solution unless the local shifts were shrunk
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
    assert len(calls) == 1
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


def test_shape_and_domain_errors():
    inst = make_instance("F1", 50, 0)
    with pytest.raises(ValueError, match="length 50"):
        inst.evaluate(np.zeros(49))
    with pytest.raises(ValueError):
        make_instance("F16", 50, 0)
    with pytest.raises(ValueError):
        make_instance("F1", 9, 0)
