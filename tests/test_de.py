import numpy as np
import pytest

from lsgo_hybrid import population
from lsgo_hybrid.benchmarks import make_instance
from lsgo_hybrid.de import DeParams, de_run, mutate_crossover, select_indices
from lsgo_hybrid.population import Population


def sphere(x):
    return float(np.dot(x, x))


def _pool(size=10, dim=5, seed=0, objective=sphere, bounds=(-10.0, 10.0)):
    rng = np.random.default_rng(seed)
    return Population.random_uniform(size, dim, bounds, rng, objective)


def _multiset(pool):
    return sorted(zip(map(tuple, pool.x.tolist()), pool.fitness.tolist()))


def test_params_validation():
    DeParams().validate()
    with pytest.raises(ValueError):
        DeParams(cr=1.5).validate()
    with pytest.raises(ValueError):
        DeParams(f=2.5).validate()
    with pytest.raises(ValueError):
        DeParams(f=-0.1).validate()
    with pytest.raises(ValueError):
        DeParams(max_iterations=-1).validate()


def test_select_indices_distinctness():
    rng = np.random.default_rng(4)
    for _ in range(200):
        picked = select_indices(10, rng)
        assert len(picked) == 4
        assert len(set(picked)) == 4
        assert all(0 <= i < 10 for i in picked)


def test_select_indices_needs_four_members():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        select_indices(3, rng)


def test_mutant_inside_bounds_after_repair():
    rng = np.random.default_rng(8)
    pool = _pool(size=8, dim=12, seed=2, bounds=(-1.0, 1.0))
    params = DeParams(cr=0.3, f=1.9)
    for _ in range(50):
        x, a, b, c = select_indices(len(pool), rng)
        trial = mutate_crossover(pool, x, a, b, c, params, (-1.0, 1.0), rng)
        assert np.all(trial >= -1.0) and np.all(trial <= 1.0)


def test_trial_always_differs_from_parent_somewhere():
    # the forced crossover coordinate guarantees at least one mutant gene
    rng = np.random.default_rng(9)
    pool = _pool(size=8, dim=6, seed=3)
    params = DeParams(cr=0.0, f=0.7)
    for _ in range(50):
        x, a, b, c = select_indices(len(pool), rng)
        trial = mutate_crossover(pool, x, a, b, c, params, (-10.0, 10.0), rng)
        assert not np.array_equal(trial, pool.x[x])


def test_constant_objective_leaves_pool_untouched():
    constant = lambda x: 1.0  # noqa: E731
    pool = _pool(size=10, dim=5, seed=1, objective=constant)
    snapshot = _multiset(pool)
    rng = np.random.default_rng(2)
    spent = de_run(pool, DeParams(max_iterations=1000), constant, rng,
                   bounds=(-10.0, 10.0))
    assert spent == 1000 * 10
    assert _multiset(pool) == snapshot


def test_improvement_and_worst_replacement():
    pool = _pool(size=12, dim=8, seed=5)
    rng = np.random.default_rng(6)
    start_best = pool.best_fitness
    start_worst = pool.fitness.max()
    de_run(pool, DeParams(max_iterations=50), sphere, rng, bounds=(-10.0, 10.0))
    assert pool.best_fitness <= start_best
    assert pool.fitness.max() <= start_worst


def test_candidate_budget_is_exact():
    pool = _pool(size=10)
    rng = np.random.default_rng(7)
    spent = de_run(pool, DeParams(max_iterations=50), sphere, rng,
                   max_candidates=137, bounds=(-10.0, 10.0))
    assert spent == 137
    spent = de_run(pool, DeParams(max_iterations=3), sphere, rng,
                   bounds=(-10.0, 10.0))
    assert spent == 30


def test_deterministic_under_seed():
    outcomes = []
    for _ in range(2):
        pool = _pool(size=8, dim=6, seed=11)
        rng = np.random.default_rng(12)
        de_run(pool, DeParams(max_iterations=200), sphere, rng, bounds=(-10.0, 10.0))
        outcomes.append(pool.fitness.tolist())
    assert outcomes[0] == outcomes[1]


def _all_out_pool(dim):
    # target 0, donors 0.9 / 0.9 / -0.9: with f=1 every mutant value is 2.7
    x = np.zeros((4, dim))
    x[1] = x[2] = 0.9
    x[3] = -0.9
    return Population(x, np.zeros(4))


@pytest.mark.parametrize("cr", [0.5, 0.9])
def test_repair_law_matches_ten_crossover_redraws(cr):
    # a coordinate is clamped at hi only if it is crossed and none of the
    # ten redraws falls back (cr**11), or if it is the forced coordinate
    dim, trials = 20, 2000
    pool = _all_out_pool(dim)
    rng = np.random.default_rng(21)
    params = DeParams(cr=cr, f=1.0)
    clamped = np.array([
        np.count_nonzero(mutate_crossover(pool, 0, 1, 2, 3, params, (-1.0, 1.0), rng) == 1.0)
        for _ in range(trials)
    ])
    assert clamped.min() >= 1
    p = cr ** 11 + (1 - cr ** 11) / dim
    n = trials * dim
    assert abs(clamped.sum() / n - p) <= 5 * np.sqrt(p * (1 - p) / n)


def test_repair_with_zero_cr_clamps_only_the_forced_coordinate():
    pool = _all_out_pool(12)
    rng = np.random.default_rng(22)
    for _ in range(50):
        v = mutate_crossover(pool, 0, 1, 2, 3, DeParams(cr=0.0, f=1.0), (-1.0, 1.0), rng)
        assert np.count_nonzero(v == 1.0) == 1
        assert np.count_nonzero(v == 0.0) == 11


def test_draw_layout_is_pinned():
    # rebuild each trial from a copy of the generator with the documented
    # draws: four index doubles, one for i_rand, then one per coordinate
    dim, (lo, hi) = 40, (-1.0, 1.0)
    pool = _pool(size=8, dim=dim, seed=4, bounds=(lo, hi))
    params = DeParams(cr=0.8, f=1.9)
    rng = np.random.default_rng(23)
    partial = 0
    for _ in range(30):
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        x, a, b, c = select_indices(len(pool), rng)
        trial = mutate_crossover(pool, x, a, b, c, params, (lo, hi), rng)

        u = replay.random(4 + 1 + dim)
        picked = []
        for k in range(4):
            r = int(u[k] * (len(pool) - k))
            for s in sorted(picked):
                r += r >= s
            picked.append(r)
        assert (x, a, b, c) == tuple(picked)
        i_rand = int(u[4] * dim)
        mutant = pool.x[a] + params.f * (pool.x[b] - pool.x[c])
        expected = pool.x[x].copy()
        fell_back = clamped = 0
        for j, uj in enumerate(u[5:]):
            inside = lo <= mutant[j] <= hi
            if j == i_rand or uj < params.cr ** 11:
                expected[j] = min(max(mutant[j], lo), hi)
                clamped += not inside
            elif uj < params.cr:
                if inside:
                    expected[j] = mutant[j]
                fell_back += not inside

        assert np.array_equal(trial, expected)
        assert replay.bit_generator.state == rng.bit_generator.state
        partial += fell_back > 0 and clamped > 0
    assert partial > 0  # some trials both fell back and clamped


@pytest.mark.parametrize("chunk", [1, 7, 64, 256])
def test_de_run_is_a_loop_of_the_public_steps(monkeypatch, chunk):
    # the chunked sweep draws and decides exactly what one trial at a time
    # does, whether the 40 trials take many chunks or one (chunk 256)
    monkeypatch.setattr(population, "CHUNK", chunk)
    bounds = (-2.0, 2.0)  # small enough that mutants leave the box
    params = DeParams(max_iterations=5, cr=0.7, f=1.2)
    chunked = _pool(size=9, dim=6, seed=30, bounds=bounds)
    stepped = _pool(size=9, dim=6, seed=30, bounds=bounds)
    rng_chunked, rng_stepped = np.random.default_rng(31), np.random.default_rng(31)

    spent = de_run(chunked, params, sphere, rng_chunked, max_candidates=40,
                   bounds=bounds)
    for _ in range(40):
        x, a, b, c = select_indices(len(stepped), rng_stepped)
        v = mutate_crossover(stepped, x, a, b, c, params, bounds, rng_stepped)
        stepped.offer(v, sphere(v))

    assert spent == 40
    assert np.array_equal(chunked.x, stepped.x)
    assert np.array_equal(chunked.fitness, stepped.fitness)
    assert rng_chunked.bit_generator.state == rng_stepped.bit_generator.state
    assert not np.array_equal(chunked.x, _pool(size=9, dim=6, seed=30, bounds=bounds).x)


@pytest.mark.parametrize("cap", [1, 7, 16])
@pytest.mark.parametrize("size", [9, 60])
@pytest.mark.parametrize("terraced", [False, True], ids=["F8", "terraces"])
def test_batched_de_run_is_a_loop_of_the_public_steps(monkeypatch, batch_recorder,
                                                      terraces, cap, terraced, size):
    # rank-safe batches build, evaluate and offer exactly what one trial at a
    # time does, with a batch-capable objective; on terraces fitness ties
    monkeypatch.setattr(population, "BATCH", cap)
    inst = terraces if terraced else make_instance("F8", 10, 3)
    objective = batch_recorder(inst)
    params = DeParams(max_iterations=20, cr=0.7, f=1.2)
    batched = _pool(size=size, dim=10, seed=32, objective=inst, bounds=inst.bounds)
    stepped = _pool(size=size, dim=10, seed=32, objective=inst, bounds=inst.bounds)
    start = batched.x.copy()
    rng_batched, rng_stepped = np.random.default_rng(33), np.random.default_rng(33)

    spent = de_run(batched, params, objective, rng_batched, max_candidates=150)
    for _ in range(150):
        x, a, b, c = select_indices(len(stepped), rng_stepped)
        v = mutate_crossover(stepped, x, a, b, c, params, inst.bounds, rng_stepped)
        stepped.offer(v, inst(v))

    assert spent == sum(objective.sizes) == 150
    assert np.array_equal(batched.x, stepped.x)
    assert np.array_equal(batched.fitness, stepped.fitness)
    assert rng_batched.bit_generator.state == rng_stepped.bit_generator.state
    assert not np.array_equal(batched.x, start)
    assert max(objective.sizes) <= cap
    if cap > 1:
        assert max(objective.sizes) > 1


def test_select_indices_is_uniform_over_distinct_tuples():
    size, n = 7, 20000
    rng = np.random.default_rng(24)
    picks = np.array([select_indices(size, rng) for _ in range(n)])
    assert all(len(set(row)) == 4 for row in picks.tolist())
    p = 1 / size
    for k in range(4):
        share = np.bincount(picks[:, k], minlength=size) / n
        assert np.all(np.abs(share - p) <= 5 * np.sqrt(p * (1 - p) / n))
    # ordered (target, first donor) pairs are uniform too
    pairs = np.bincount(picks[:, 0] * size + picks[:, 1], minlength=size * size)
    p = 1 / (size * (size - 1))
    off_diagonal = pairs.reshape(size, size)[~np.eye(size, dtype=bool)] / n
    assert np.all(np.abs(off_diagonal - p) <= 5 * np.sqrt(p * (1 - p) / n))


def test_zero_cr_takes_the_mutant_only_at_the_forced_coordinate():
    pool = _pool(size=8, dim=10, seed=32)
    rng = np.random.default_rng(33)
    for _ in range(50):
        x, a, b, c = select_indices(len(pool), rng)
        trial = mutate_crossover(pool, x, a, b, c, DeParams(cr=0.0, f=0.5),
                                 (-10.0, 10.0), rng)
        assert np.count_nonzero(trial != pool.x[x]) == 1


def test_full_cr_takes_the_clamped_mutant_everywhere():
    bounds = (-2.0, 2.0)
    pool = _pool(size=8, dim=10, seed=34, bounds=bounds)
    rng = np.random.default_rng(35)
    params = DeParams(cr=1.0, f=1.5)
    for _ in range(50):
        x, a, b, c = select_indices(len(pool), rng)
        trial = mutate_crossover(pool, x, a, b, c, params, bounds, rng)
        mutant = pool.x[a] + params.f * (pool.x[b] - pool.x[c])
        assert np.array_equal(trial, np.clip(mutant, *bounds))
