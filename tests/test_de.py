import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        DeParams(strategy="currenttobest").validate()
    DeParams(strategy="best1bin").validate()


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
    start_worst = pool.worst_fitness
    de_run(pool, DeParams(max_iterations=50), sphere, rng, bounds=(-10.0, 10.0))
    assert pool.best_fitness <= start_best
    assert pool.worst_fitness <= start_worst


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


def test_best_strategy_also_converges():
    pool = _pool(size=16, dim=6, seed=15)
    rng = np.random.default_rng(16)
    start = pool.best_fitness
    de_run(pool, DeParams(max_iterations=300, strategy="best1bin"), sphere, rng,
           bounds=(-10.0, 10.0))
    assert pool.best_fitness < start * 0.5


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
    # draws: integers(d), random(d), then random(n_out)
    dim, (lo, hi) = 40, (-1.0, 1.0)
    pool = _pool(size=8, dim=dim, seed=4, bounds=(lo, hi))
    params = DeParams(cr=0.8, f=1.9)
    rng = np.random.default_rng(23)
    partial = 0
    for _ in range(30):
        x, a, b, c = select_indices(len(pool), rng)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        trial = mutate_crossover(pool, x, a, b, c, params, (lo, hi), rng)

        mutant = pool.x[a] + params.f * (pool.x[b] - pool.x[c])
        i_rand = int(replay.integers(dim))
        cross = replay.random(dim) < params.cr
        cross[i_rand] = True
        v = np.where(cross, mutant, pool.x[x])
        out = np.flatnonzero(cross & ((v < lo) | (v > hi)))
        fall_back = replay.random(out.size) >= params.cr ** 10
        fall_back[out == i_rand] = False
        v[out[fall_back]] = pool.x[x][out[fall_back]]
        expected = np.clip(v, lo, hi)

        assert np.array_equal(trial, expected)
        assert replay.bit_generator.state == rng.bit_generator.state
        partial += 0 < np.count_nonzero(fall_back) < out.size
    assert partial > 0  # some trials both fell back and clamped
