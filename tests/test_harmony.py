import numpy as np
import pytest

from lsgo_hybrid import population
from lsgo_hybrid.benchmarks import make_instance
from lsgo_hybrid.harmony import (
    BANDWIDTH_FRACTION,
    HarmonyParams,
    harmony_run,
    harmony_update,
    hmcr_schedule,
)
from lsgo_hybrid.population import Population


def sphere(x):
    return float(np.dot(x, x))


def _pool(size=10, dim=5, seed=0, objective=sphere, bounds=(-10.0, 10.0)):
    rng = np.random.default_rng(seed)
    return Population.random_uniform(size, dim, bounds, rng, objective)


def test_schedule_endpoints_and_linearity():
    assert hmcr_schedule(1, 100) == pytest.approx(0.7)
    assert hmcr_schedule(100, 100) == pytest.approx(0.9)
    mid = hmcr_schedule(50, 100)
    lo = hmcr_schedule(25, 100)
    hi = hmcr_schedule(75, 100)
    assert mid == pytest.approx((lo + hi) / 2)
    # strictly increasing across the schedule
    values = [hmcr_schedule(i, 50) for i in range(1, 51)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_schedule_degenerate_lengths():
    assert hmcr_schedule(1, 1) == pytest.approx(0.7)
    assert hmcr_schedule(1, 0) == pytest.approx(0.7)


def test_params_validation():
    with pytest.raises(ValueError):
        HarmonyParams(max_iterations=-1).validate()
    with pytest.raises(ValueError):
        HarmonyParams(par=1.5).validate()
    HarmonyParams().validate()


def test_best_never_worsens():
    pool = _pool(size=12, dim=8, seed=3)
    params = HarmonyParams(max_iterations=500)
    best_before = pool.best_fitness
    rng = np.random.default_rng(7)
    for _ in range(5):
        harmony_run(pool, params, sphere, rng,
                    iteration_window=(1, 100), bounds=(-10.0, 10.0))
        assert pool.best_fitness <= best_before
        best_before = pool.best_fitness


def _multiset(pool):
    return sorted(zip(map(tuple, pool.x.tolist()), pool.fitness.tolist()))


def test_constant_objective_leaves_pool_untouched():
    constant = lambda x: 1.0  # noqa: E731
    pool = _pool(size=10, dim=5, seed=1, objective=constant)
    snapshot = _multiset(pool)
    rng = np.random.default_rng(2)
    spent = harmony_run(pool, HarmonyParams(max_iterations=1000), constant, rng,
                        bounds=(-10.0, 10.0))
    assert spent == 1000
    assert _multiset(pool) == snapshot


def test_iteration_window_spends_exactly_its_width():
    pool = _pool()
    params = HarmonyParams(max_iterations=1000)
    rng = np.random.default_rng(5)
    spent = harmony_run(pool, params, sphere, rng, iteration_window=(201, 700),
                        bounds=(-10.0, 10.0))
    assert spent == 500
    spent = harmony_run(pool, params, sphere, rng, iteration_window=(701, 700),
                        bounds=(-10.0, 10.0))
    assert spent == 0


def test_full_run_spends_max_iterations():
    pool = _pool()
    params = HarmonyParams(max_iterations=321)
    rng = np.random.default_rng(5)
    assert harmony_run(pool, params, sphere, rng, bounds=(-10.0, 10.0)) == 321


def test_deterministic_under_seed():
    results = []
    for _ in range(2):
        pool = _pool(size=8, dim=6, seed=9)
        rng = np.random.default_rng(42)
        harmony_run(pool, HarmonyParams(max_iterations=800), sphere, rng,
                    bounds=(-10.0, 10.0))
        results.append(pool.fitness.tolist())
    assert results[0] == results[1]


def test_improves_on_separable_quadratic():
    pool = _pool(size=20, dim=10, seed=13)
    start = pool.best_fitness
    rng = np.random.default_rng(14)
    harmony_run(pool, HarmonyParams(max_iterations=5000), sphere, rng,
                bounds=(-10.0, 10.0))
    assert pool.best_fitness < start * 0.5


def test_replacement_targets_the_worst_only():
    pool = _pool(size=10, dim=5, seed=21)
    rng = np.random.default_rng(22)
    worst_before = pool.fitness.max()
    harmony_run(pool, HarmonyParams(max_iterations=300), sphere, rng,
                bounds=(-10.0, 10.0))
    # the worst can only improve, never degrade
    assert pool.fitness.max() <= worst_before


def test_draw_layout_is_pinned():
    # rebuild each iteration from a copy of the generator with the documented
    # draws: one for the branch, one for the member, then one per coordinate
    dim, (lo, hi) = 30, (-1.0, 1.0)
    pool = _pool(size=8, dim=dim, seed=4, bounds=(lo, hi))
    hmcr, par, fraction = 0.6, 0.3, 0.05
    bw = fraction * (hi - lo)
    rng = np.random.default_rng(25)
    branches = set()
    for _ in range(40):
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        v = harmony_update(pool, hmcr, par, fraction, (lo, hi), rng)

        u = replay.random(2 + dim)
        if u[0] < hmcr:
            base = pool.x[int(u[1] * len(pool))]
            adjust = u[2:] < par
            expected = np.clip(np.where(adjust, base + (u[2:] * (2 * bw / par) - bw), base),
                               lo, hi)
        else:
            expected = lo + (hi - lo) * u[2:]
        branches.add(bool(u[0] < hmcr))

        assert np.array_equal(v, expected)
        assert replay.bit_generator.state == rng.bit_generator.state
    assert branches == {True, False}


@pytest.mark.parametrize("chunk", [1, 7, 64, 256])
def test_harmony_run_is_a_loop_of_the_public_steps(monkeypatch, chunk):
    # the chunked window draws and decides exactly what one step at a time
    # does, whether the 148 steps take many chunks or one (chunk 256)
    monkeypatch.setattr(population, "CHUNK", chunk)
    bounds = (-10.0, 10.0)
    params = HarmonyParams(max_iterations=200, par=0.4)
    chunked = _pool(size=9, dim=6, seed=40)
    stepped = _pool(size=9, dim=6, seed=40)
    rng_chunked, rng_stepped = np.random.default_rng(41), np.random.default_rng(41)

    spent = harmony_run(chunked, params, sphere, rng_chunked, iteration_window=(3, 150),
                        bounds=bounds)
    for it in range(3, 151):
        hmcr = hmcr_schedule(it, params.max_iterations)
        v = harmony_update(stepped, hmcr, params.par, BANDWIDTH_FRACTION, bounds,
                           rng_stepped)
        stepped.offer(v, sphere(v))

    assert spent == 148
    assert np.array_equal(chunked.x, stepped.x)
    assert np.array_equal(chunked.fitness, stepped.fitness)
    assert rng_chunked.bit_generator.state == rng_stepped.bit_generator.state
    assert not np.array_equal(chunked.x, _pool(size=9, dim=6, seed=40).x)


@pytest.mark.parametrize("cap", [1, 7, 16])
@pytest.mark.parametrize("size", [9, 60])
@pytest.mark.parametrize("terraced", [False, True], ids=["F8", "terraces"])
def test_batched_harmony_run_is_a_loop_of_the_public_steps(monkeypatch, batch_recorder,
                                                           terraces, cap, terraced, size):
    # rank-safe batches build, evaluate and offer exactly what one iteration
    # at a time does, with a batch-capable objective; on terraces fitness ties
    monkeypatch.setattr(population, "BATCH", cap)
    inst = terraces if terraced else make_instance("F8", 10, 3)
    objective = batch_recorder(inst)
    params = HarmonyParams(max_iterations=200, par=0.4)
    batched = _pool(size=size, dim=10, seed=42, objective=inst, bounds=inst.bounds)
    stepped = _pool(size=size, dim=10, seed=42, objective=inst, bounds=inst.bounds)
    start = batched.x.copy()
    rng_batched, rng_stepped = np.random.default_rng(43), np.random.default_rng(43)

    spent = harmony_run(batched, params, objective, rng_batched,
                        iteration_window=(3, 180))
    for it in range(3, 181):
        hmcr = hmcr_schedule(it, params.max_iterations)
        v = harmony_update(stepped, hmcr, params.par, BANDWIDTH_FRACTION, inst.bounds,
                           rng_stepped)
        stepped.offer(v, inst(v))

    assert spent == sum(objective.sizes) == 178
    assert np.array_equal(batched.x, stepped.x)
    assert np.array_equal(batched.fitness, stepped.fitness)
    assert rng_batched.bit_generator.state == rng_stepped.bit_generator.state
    assert not np.array_equal(batched.x, start)
    assert max(objective.sizes) <= cap
    if cap > 1:
        assert max(objective.sizes) > 1


def test_pitch_adjustment_law():
    # every member at the centre: the new vector is the noise itself
    dim, trials, par, fraction, bounds = 50, 400, 0.3, 0.01, (-10.0, 10.0)
    bw = fraction * (bounds[1] - bounds[0])
    pool = Population(np.zeros((5, dim)), np.zeros(5))
    rng = np.random.default_rng(26)
    noise = np.array([harmony_update(pool, 1.0, par, fraction, bounds, rng)
                      for _ in range(trials)])
    adjusted = noise[noise != 0]
    n = noise.size
    assert abs(adjusted.size / n - par) <= 5 * np.sqrt(par * (1 - par) / n)
    assert np.all(np.abs(adjusted) <= bw)
    assert abs(adjusted.mean()) <= 5 * (bw / np.sqrt(3)) / np.sqrt(adjusted.size)


def test_fresh_points_fill_the_box():
    dim, bounds = 50, (-3.0, 5.0)
    pool = _pool(size=5, dim=dim, seed=27, bounds=bounds)
    rng = np.random.default_rng(28)
    fresh = np.array([harmony_update(pool, 0.0, 0.4, 0.01, bounds, rng)
                      for _ in range(200)])
    assert np.all((fresh >= bounds[0]) & (fresh < bounds[1]))
    n = fresh.size
    # uniform on [-3, 5): mean 1, standard deviation 8 / sqrt(12)
    assert abs(fresh.mean() - 1.0) <= 5 * (8 / np.sqrt(12)) / np.sqrt(n)
    assert not any(np.array_equal(row, member) for row in fresh for member in pool.x)


def test_zero_par_copies_a_member_unchanged():
    pool = _pool(size=6, dim=8, seed=29)
    rng = np.random.default_rng(30)
    for _ in range(30):
        v = harmony_update(pool, 1.0, 0.0, 0.5, (-10.0, 10.0), rng)
        assert any(np.array_equal(v, member) for member in pool.x)
