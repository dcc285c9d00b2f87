import numpy as np
import pytest

from lsgo_hybrid.benchmarks import make_instance
from lsgo_hybrid.cli import _fe_label
from lsgo_hybrid.de import DeParams
from lsgo_hybrid.harmony import HarmonyParams
from lsgo_hybrid.hybrid import (
    HybridConfig,
    fe_budget,
    final_stats,
    run,
    run_batch,
    scaled,
)
from lsgo_hybrid.population import Population


def _tiny(pop=10, outer=3, harmony=50, de=4, checkpoints=(1, 3), seed=0):
    return HybridConfig(
        population_size=pop,
        outer_iterations=outer,
        harmony=HarmonyParams(max_iterations=harmony),
        de=DeParams(max_iterations=de),
        checkpoints=checkpoints,
        seed=seed,
    )


def test_default_budget_is_three_million():
    assert fe_budget(HybridConfig()) == 3_000_000


def test_default_checkpoint_fe_counts():
    config = HybridConfig()
    per_cycle = fe_budget(config) // config.outer_iterations
    assert [k * per_cycle for k in config.checkpoints] == [
        120_000, 600_000, 3_000_000,
    ]


def test_scaled_five_percent_budget():
    assert fe_budget(scaled(HybridConfig(), 0.05)) == 150_000


def test_scaled_by_one_is_the_config_itself():
    assert scaled(HybridConfig(), 1.0) == HybridConfig()


def test_scaled_floors_iteration_counts_at_one():
    config = scaled(HybridConfig(), 1e-9)
    assert config.harmony.max_iterations == 1
    assert config.de.max_iterations == 1
    with pytest.raises(ValueError):
        scaled(HybridConfig(), 0.0)


@pytest.mark.parametrize("scale", [float("inf"), float("nan")])
def test_scaled_rejects_a_non_finite_scale(scale):
    with pytest.raises(ValueError, match="budget_scale"):
        scaled(HybridConfig(), scale)


def test_scaled_rejects_a_scale_that_overflows_an_iteration_count():
    # 1e308 is finite, but 1e4 harmony iterations times it is not
    with pytest.raises(ValueError, match="budget_scale 1e\\+308 overflows"):
        scaled(HybridConfig(), 1e308)


def test_scaled_keeps_a_switched_off_phase_at_zero():
    harmony_only = scaled(HybridConfig(de=DeParams(max_iterations=0)), 0.5)
    assert harmony_only.de.max_iterations == 0
    assert harmony_only.harmony.max_iterations == 5_000
    assert fe_budget(harmony_only) == 500_000
    de_only = scaled(HybridConfig(harmony=HarmonyParams(max_iterations=0)), 0.5)
    assert de_only.harmony.max_iterations == 0
    assert de_only.de.max_iterations == 50
    assert fe_budget(de_only) == 1_000_000


def test_initial_pool_is_evaluated_in_batches(batch_recorder):
    inst = make_instance("F13", 20, 0)
    objective = batch_recorder(inst)
    rng_batched, rng_lone = np.random.default_rng(5), np.random.default_rng(5)
    batched = Population.random_uniform(37, 20, inst.bounds, rng_batched, objective)
    lone = Population.random_uniform(37, 20, inst.bounds, rng_lone, inst.evaluate)
    assert objective.sizes == [37]
    assert inst.eval_count == 74
    assert np.array_equal(batched.x, lone.x)
    assert np.array_equal(batched.fitness, lone.fitness)


def test_run_consumes_exactly_the_budget():
    config = _tiny()
    inst = make_instance("F1", 10, 0)
    result = run(inst, config)
    assert fe_budget(config) == 270
    assert result.fe_consumed == 270
    assert inst.eval_count == 270


def test_budget_exact_when_pool_exceeds_harmony_share():
    config = _tiny(pop=10, outer=2, harmony=4, de=2, checkpoints=(2,))
    inst = make_instance("F1", 10, 1)
    result = run(inst, config)
    assert fe_budget(config) == 48
    assert result.fe_consumed == 48
    assert inst.eval_count == 48


def test_checkpoints_keyed_by_evaluation_count():
    # a results table labels checkpoint c by its c * per_cycle evaluations and
    # reports trace[2c], the best after cycle c
    config = _tiny()
    result = run(make_instance("F1", 10, 0), config)
    assert [_fe_label(c * config.per_cycle, fe_budget(config))
            for c in config.checkpoints] == ["fe_90", "fe_final"]
    # the default config gives the paper's three columns
    default = HybridConfig()
    assert [_fe_label(c * default.per_cycle, fe_budget(default))
            for c in default.checkpoints] == ["fe_120k", "fe_600k", "fe_final"]
    assert len(result.trace) == 2 * config.outer_iterations + 1
    assert result.trace[2 * config.checkpoints[-1]] == result.final_best.fitness


def test_checkpoint_values_non_increasing():
    config = _tiny(outer=5, checkpoints=(1, 2, 3, 4, 5))
    result = run(make_instance("F1", 10, 2), config)
    values = [result.trace[2 * c] for c in config.checkpoints]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_trace_is_monotone_non_increasing():
    inst = make_instance("F2", 10, 3)
    config = _tiny(outer=6, checkpoints=())
    result = run(inst, config)
    assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))
    # the trace opens with the best of the seeded initial pool; run 0's
    # stream is seeded by the words (config.seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    pool = Population.random_uniform(config.population_size, inst.dimension,
                                     inst.bounds, rng, inst)
    assert result.trace[0] == pool.best_fitness


def test_run_takes_its_seed_and_run_index_as_integers():
    inst = make_instance("F1", 10, 0)
    for seed, run_index, shown in ((3.9, 0, "seed=3.9, run_index=0"),
                                   (0, 1.5, "seed=0, run_index=1.5")):
        with pytest.raises(ValueError, match=rf"^seeds must be integers, got {shown}$"):
            run(inst.fresh_copy(), _tiny(seed=seed), run_index=run_index)
    # numpy integers give the bits of the Python integers
    a = run(inst.fresh_copy(), _tiny(seed=np.int64(5)), run_index=np.int64(2))
    b = run(inst.fresh_copy(), _tiny(seed=5), run_index=2)
    assert a.trace == b.trace
    assert np.array_equal(a.final_best.x, b.final_best.x)


def test_same_seed_and_index_bit_identical():
    config = _tiny(seed=123)
    a = run(make_instance("F5", 10, 7), config, run_index=4)
    b = run(make_instance("F5", 10, 7), config, run_index=4)
    assert a.final_best.fitness == b.final_best.fitness
    assert np.array_equal(a.final_best.x, b.final_best.x)
    assert a.trace == b.trace


def test_different_run_index_differs():
    config = _tiny(seed=123)
    a = run(make_instance("F5", 10, 7), config, run_index=0)
    b = run(make_instance("F5", 10, 7), config, run_index=1)
    assert a.final_best.fitness != b.final_best.fitness


def test_run_batch_parallel_matches_serial():
    config = _tiny(seed=5)
    inst = make_instance("F1", 10, 3)
    serial, sum_serial = run_batch(inst, config, n_runs=3, workers=1)
    parallel, sum_parallel = run_batch(inst, config, n_runs=3, workers=2)
    assert [r.final_best.fitness for r in serial] == [
        r.final_best.fitness for r in parallel
    ]
    assert sum_serial == sum_parallel


@pytest.mark.parametrize("fid,dim", [("F4", 50), ("F15", 1000)])
def test_run_batch_on_rotated_blocks_parallel_matches_serial(fid, dim):
    # F4 has rotated blocks plus a separable tail, F15 one 1000-row block, a
    # size at which OpenBLAS runs threads and every group takes the row-major
    # product; the workers evaluate through the read-only rotations of an
    # unpickled instance
    config = _tiny(seed=2)
    inst = make_instance(fid, dim, 1)
    serial, sum_serial = run_batch(inst, config, n_runs=3, workers=1)
    parallel, sum_parallel = run_batch(inst, config, n_runs=3, workers=2)
    for a, b in zip(serial, parallel):
        assert a.final_best.fitness == b.final_best.fitness
        assert np.array_equal(a.final_best.x, b.final_best.x)
        assert a.trace == b.trace
    assert sum_serial == sum_parallel


def test_run_batch_accepts_prebuilt_instance():
    inst = make_instance("F1", 10, 3)
    config = _tiny(seed=5)
    results, summary = run_batch(inst, config, n_runs=2)
    assert len(results) == 2
    assert summary == final_stats(r.final_best.fitness for r in results)
    # prototype instance must stay untouched
    assert inst.eval_count == 0


def test_run_batch_asks_for_at_most_one_worker_per_run(monkeypatch):
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("lsgo_hybrid.hybrid.ProcessPoolExecutor", InlinePool)
    config = _tiny(seed=5)
    inst = make_instance("F1", 10, 3)
    serial, _ = run_batch(inst, config, n_runs=3, workers=1)
    pooled, _ = run_batch(inst, config, n_runs=3, workers=64)
    assert pools == [3]
    # a single run takes the in-process path
    lone, _ = run_batch(inst, config, n_runs=1, workers=64)
    assert pools == [3]
    assert [r.final_best.fitness for r in pooled] == [
        r.final_best.fitness for r in serial
    ]
    assert lone[0].final_best.fitness == serial[0].final_best.fitness


def test_summary_order_statistics():
    s = final_stats([2.0, 8.0, 5.0])
    assert s["best"] == 2.0
    assert s["median"] == 5.0
    assert s["worst"] == 8.0
    assert s["mean"] == pytest.approx(5.0)
    assert s["stddev"] == pytest.approx(3.0)


def test_summary_single_run_stddev_zero():
    config = _tiny(seed=1)
    results, summary = run_batch(make_instance("F1", 10, 0), config, n_runs=1)
    assert summary["stddev"] == 0.0
    assert summary["best"] == summary["median"] == summary["worst"]


def test_final_stats_rejects_empty():
    with pytest.raises(ValueError):
        final_stats([])


def test_config_validation():
    with pytest.raises(ValueError, match="absorb"):
        _tiny(pop=200, harmony=50, de=0, outer=2, checkpoints=(2,)).validate()
    with pytest.raises(ValueError):
        _tiny(checkpoints=(5,), outer=3).validate()
    with pytest.raises(ValueError):
        _tiny(checkpoints=(2, 1)).validate()
    with pytest.raises(ValueError):
        _tiny(pop=3).validate()
    with pytest.raises(ValueError, match="outer_iterations must be at least 1"):
        HybridConfig(outer_iterations=0).validate()
    _tiny().validate()


def test_run_batch_rejects_zero_runs():
    with pytest.raises(ValueError):
        run_batch(make_instance("F1", 10, 0), _tiny(), n_runs=0)


class _NanOnce:
    """Sphere objective whose first evaluation returns NaN."""

    dimension = 5
    bounds = (-10.0, 10.0)

    def __init__(self):
        self.calls = 0

    def evaluate(self, x):
        self.calls += 1
        return float("nan") if self.calls == 1 else float(np.dot(x, x))

    __call__ = evaluate


def test_nan_during_pool_initialisation_does_not_freeze_the_pool():
    result = run(_NanOnce(), _tiny())
    assert np.isfinite(result.final_best.fitness)
    assert all(np.isfinite(result.trace))
    assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))
