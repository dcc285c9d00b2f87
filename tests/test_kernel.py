"""The evaluation kernel: a row's value is the same alone and in any batch."""

import numpy as np
import pytest

from lsgo_hybrid.benchmarks import FUNCTION_IDS, make_instance
from lsgo_hybrid.benchmarks.instance import G, _row_major
from lsgo_hybrid.benchmarks import oscillate
from lsgo_hybrid.benchmarks.transforms import half_sin_inplace, oscillate_skew_inplace

_CASES = [(fid, dim) for dim in (50, 1000) for fid in FUNCTION_IDS]


def _points(inst, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(*inst.bounds, size=(m, inst.dimension))
    # near the optimum z has small coordinates of both signs, and exact zeros
    x[0] = inst.optimum_preimage
    if m > 1:
        x[1] = inst.optimum_preimage + rng.normal(size=inst.dimension) * 1e-3
    return x


@pytest.mark.parametrize("fid,dim", _CASES)
def test_lone_evaluate_equals_its_batch_row(fid, dim):
    inst = make_instance(fid, dim, 4)
    for m in (1, 3, G // 2, G // 2 + 1, 15, 16, 17, 37):
        x = _points(inst, m, [dim, int(fid[1:]), m])
        batch = inst.evaluate_batch(x)
        assert batch.shape == (m,)
        assert np.array_equal(batch, [inst.evaluate(row) for row in x])


@pytest.mark.parametrize("fid,dim", _CASES)
def test_row_value_ignores_position_and_neighbours(fid, dim):
    inst = make_instance(fid, dim, 5)
    rng = np.random.default_rng([dim, int(fid[1:])])
    v = rng.uniform(*inst.bounds, size=dim)
    alone = inst.evaluate(v)
    for pos in range(G + 3):
        x = rng.uniform(*inst.bounds, size=(G + 3, dim))
        x[pos] = v
        assert inst.evaluate_batch(x)[pos] == alone
        assert inst.evaluate_batch(x[: pos + 1])[pos] == alone


def _rotated_block_sizes():
    sizes = set()
    for dim in (50, 1000):
        for fid in FUNCTION_IDS:
            inst = make_instance(fid, dim, 0)
            sizes.update(s.size for s in inst.subcomponents if s.rotation is not None)
    return sorted(sizes)


_SIZES = _rotated_block_sizes()


def test_rotated_block_sizes_are_known():
    # the sizes of the GEMM test below; they depend on the layout, not the seed
    assert _SIZES == [5, 6, 7, 9, 10, 12, 16, 25, 45, 49, 50, 91, 99, 100, 182, 197,
                      200, 364, 394, 1000]


@pytest.mark.parametrize("n", _SIZES)
def test_rotation_product_column_ignores_position_and_neighbours(n):
    # The kernel rotates a block as R @ Y.T, Y being the block's columns of a
    # G-row buffer; a column of that product must not depend on where its row
    # sits nor on the other rows, or a lone evaluation would differ from its
    # batch row. A BLAS that breaks this fails here rather than drifting.
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v = rng.uniform(-100.0, 100.0, size=n)
    alone = np.zeros((G, n + 7))
    alone[0, 3 : 3 + n] = v
    expected = (q @ alone[:, 3 : 3 + n].T)[:, 0]
    contiguous = np.zeros((G, n))
    contiguous[0] = v
    assert np.array_equal((q @ contiguous.T)[:, 0], expected)
    for pos in range(G):
        for neighbours in (np.zeros((G, n + 7)), rng.uniform(-100.0, 100.0, (G, n + 7))):
            neighbours[pos, 3 : 3 + n] = v
            column = (q @ neighbours[:, 3 : 3 + n].T)[:, pos]
            assert np.array_equal(column, expected), (n, pos)


_ROW_MAJOR_SIZES = [n for n in sorted({1000, 1004, 1008, 2000, *_SIZES}) if _row_major(n)]


def test_only_f15s_block_is_rotated_row_major_at_the_layouts_sizes():
    # so serial-d1000-dense runs the row form and serial-d1000-blocks does not
    assert [n for n in _SIZES if _row_major(n)] == [1000]


@pytest.mark.parametrize("n", _ROW_MAJOR_SIZES)
def test_row_major_product_row_equals_the_column_product(n):
    # A rotation the size rule picks is applied as Y[:w] @ R.T, w being the
    # group's row count rounded up to a multiple of 4. Each row of that product
    # must have the bits of its column of R @ Y.T at every position, width and
    # neighbourhood, or the two forms would give different values. At one
    # OpenBLAS thread a row count that is not a multiple of 8 (1004) fails.
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v = rng.uniform(-100.0, 100.0, size=n)
    alone = np.zeros((G, n + 7))
    alone[0, 3 : 3 + n] = v
    expected = (q @ alone[:, 3 : 3 + n].T)[:, 0]
    for w in (4, 8, 12, 16):
        for pos in range(w):
            for neighbours in (np.zeros((G, n + 7)), rng.uniform(-100.0, 100.0, (G, n + 7))):
                neighbours[pos, 3 : 3 + n] = v
                y = neighbours[:, 3 : 3 + n]
                row = (y[:w] @ q.T)[pos]
                assert np.array_equal(row, expected), (n, w, pos)
                assert np.array_equal(row, (q @ y.T)[:, pos]), (n, w, pos)


def _sin_arguments(n, seed):
    # the arguments oscillate feeds its sines: c * log|z| over many scales,
    # plus zeros and multiples of pi
    rng = np.random.default_rng(seed)
    x = 10.0 * np.log(rng.uniform(1e-12, 1e3, size=n)) * rng.choice([-1.0, 1.0], size=n)
    x[::5] = 0.0
    x[1::7] = np.arange(x[1::7].size) * np.pi
    return x


def _sin_alone(x):
    return np.array([half_sin_inplace(np.array([v]))[0] for v in x])


def test_sine_bits_ignore_length_offset_stride_and_layout():
    # The oscillation map's sines run over whole G-row buffers, so an element's
    # bits must not depend on the array around it, or a lone evaluation would
    # differ from its batch row; this rests on numpy's SIMD tan treating the
    # tail elements of an array like its body.
    x = _sin_arguments(70 + 8, 0)
    alone = _sin_alone(x)
    for offset in range(9):
        for n in range(1, 71):
            buf = x.copy()
            half_sin_inplace(buf[offset : offset + n])
            got = buf[offset : offset + n]
            assert np.array_equal(got, alone[offset : offset + n]), (offset, n)
    wide = _sin_arguments(7 * 70, 1)
    for stride in (2, 3, 7):
        buf = wide.copy()
        half_sin_inplace(buf[::stride])
        assert np.array_equal(buf[::stride], _sin_alone(wide[::stride])), stride
    rows = _sin_arguments(G * 37, 2).reshape(G, 37)
    for col in (0, 5, 36):
        buf = rows.copy()
        half_sin_inplace(buf[:, col])
        assert np.array_equal(buf[:, col], _sin_alone(rows[:, col])), col


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _map_arguments(n, seed):
    # rotated coordinates over many scales and both signs, with exact zeros
    # and +-1, and slopes as the kernel's beta * g_i
    rng = np.random.default_rng(seed)
    z = 10.0 ** rng.uniform(-12, 4, size=n) * rng.choice([-1.0, 1.0], size=n)
    z[::5] = 0.0
    z[1::7] = 1.0
    z[2::11] = -1.0
    return z, 0.2 * rng.random(n)


def _map_alone(z, slope):
    return np.array([oscillate_skew_inplace(np.array([v]), np.array([s]))[0]
                     for v, s in zip(z, slope)])


def test_fused_map_bits_ignore_length_offset_stride_and_layout():
    # The fused oscillation-and-skew map runs over whole G-row buffers, so an
    # element's bits must depend on its value and slope alone, or a lone
    # evaluation would differ from its batch row.
    z, slope = _map_arguments(70 + 8, 3)
    alone = _map_alone(z, slope)
    for offset in range(9):
        for n in range(1, 71):
            buf = z.copy()
            span = slice(offset, offset + n)
            oscillate_skew_inplace(buf[span], slope[span])
            assert np.array_equal(_bits(buf[span]), _bits(alone[span])), (offset, n)
    wide, wide_slope = _map_arguments(7 * 70, 4)
    for stride in (2, 3, 7):
        buf = wide.copy()
        oscillate_skew_inplace(buf[::stride], wide_slope[::stride])
        expected = _map_alone(wide[::stride], wide_slope[::stride])
        assert np.array_equal(_bits(buf[::stride]), _bits(expected)), stride
    flat, _ = _map_arguments(G * 37, 5)
    rows = flat.reshape(G, 37)
    row_slope = _map_arguments(37, 6)[1]
    expected = np.array([_map_alone(row, row_slope) for row in rows])
    for cols in (slice(0, 1), slice(5, 6), slice(36, 37), slice(5, 30), slice(0, 37)):
        buf = rows.copy()
        oscillate_skew_inplace(buf[:, cols], row_slope[cols])
        assert np.array_equal(_bits(buf[:, cols]), _bits(expected[:, cols])), cols


# Version 0.12.0's bodies of the fused map and its sine: the reference that
# pins "no number changed" for the passes the map has shed since.
_SIN_C1 = np.array([5.5, 10.0])
_SIN_C2 = np.array([3.1, 7.9])


def _sin_0_12_0(x):
    x *= 0.5
    np.tan(x, out=x)
    denom = x * x
    denom += 1.0
    x += x
    x /= denom
    return x


def _map_0_12_0(z, slope):
    zero = z == 0
    pos = z > 0
    sign = pos.view(np.uint8)
    w = np.abs(z)
    w[zero] = 1.0
    np.log(w, out=w)
    s1 = _SIN_C1.take(sign)
    s1 *= w
    _sin_0_12_0(s1)
    s2 = _SIN_C2.take(sign)
    s2 *= w
    s1 += _sin_0_12_0(s2)
    s1 *= 0.049
    w += s1
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


def _pinned_points():
    rng = np.random.default_rng(1612)
    edges = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, -1e-300])
    spread = 10.0 ** rng.uniform(-30, 4, size=4000) * rng.choice([-1.0, 1.0], size=4000)
    return np.concatenate([edges, spread])


def test_fused_map_bits_equal_the_0_12_0_map():
    z = _pinned_points()
    slope = 0.2 * np.random.default_rng(16).random(z.size)
    for s in (slope, 0.0, 0.1):
        assert np.array_equal(_bits(oscillate_skew_inplace(z.copy(), s)),
                              _bits(_map_0_12_0(z.copy(), s))), s
    assert np.array_equal(_bits(oscillate(z)), _bits(_map_0_12_0(z.copy(), 0.0)))
    rows = np.tile(z[:1000], (3, 3)).reshape(6, 1500)
    got = rows.copy()
    oscillate_skew_inplace(got[::2, 1:1500:3], slope[:500])
    expected = _map_0_12_0(rows[::2, 1:1500:3].copy(), slope[:500])
    assert np.array_equal(_bits(got[::2, 1:1500:3]), _bits(expected))
    untouched = np.ones(rows.shape, dtype=bool)
    untouched[::2, 1:1500:3] = False
    assert np.array_equal(_bits(got[untouched]), _bits(rows[untouched]))


@pytest.mark.parametrize("n,seed", [(70 + 8, 0), (7 * 70, 1), (G * 37, 2)])
def test_doubled_half_sine_bits_equal_the_0_12_0_sine(n, seed):
    x = _sin_arguments(n, seed)
    assert np.array_equal(_bits(2.0 * half_sin_inplace(x / 2.0)),
                          _bits(_sin_0_12_0(x.copy())))


def test_eval_count_counts_rows():
    inst = make_instance("F8", 50, 0)
    x = np.zeros((37, 50))
    inst.evaluate_batch(x)
    assert inst.eval_count == 37
    inst.evaluate(x[0])
    assert inst.eval_count == 38
    inst.evaluate_batch(x[:0])
    assert inst.eval_count == 38


def test_empty_batch_gives_an_empty_array():
    inst = make_instance("F15", 50, 0)
    out = inst.evaluate_batch(np.zeros((0, 50)))
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_batch_shape_errors():
    inst = make_instance("F4", 50, 0)
    for bad in (np.zeros(50), np.zeros((3, 49)), np.zeros((2, 3, 50))):
        with pytest.raises(ValueError, match=r"\(m, 50\) array"):
            inst.evaluate_batch(bad)
    with pytest.raises(ValueError, match="length 50"):
        inst.evaluate(np.zeros((1, 50)))
    assert inst.eval_count == 0


def test_batch_accepts_lists_and_other_memory_orders():
    inst = make_instance("F13", 50, 2)
    x = np.random.default_rng(3).uniform(*inst.bounds, size=(5, 50))
    expected = inst.evaluate_batch(x)
    assert np.array_equal(inst.evaluate_batch(np.asfortranarray(x)), expected)
    assert np.array_equal(inst.evaluate_batch(x.tolist()), expected)
    assert np.array_equal(inst.evaluate_batch(x[::-1])[::-1], expected)
