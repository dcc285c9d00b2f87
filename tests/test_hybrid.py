import numpy as np
import pytest

from lsgo_hybrid.benchmarks import make_instance
from lsgo_hybrid.de import DeParams
from lsgo_hybrid.harmony import HarmonyParams
from lsgo_hybrid.hybrid import (
    HybridConfig,
    fe_budget,
    run,
    run_batch,
    scaled,
    summarize,
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


def test_scaled_floors_iteration_counts_at_one():
    config = scaled(HybridConfig(), 1e-9)
    assert config.harmony.max_iterations == 1
    assert config.de.max_iterations == 1
    with pytest.raises(ValueError):
        scaled(HybridConfig(), 0.0)


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
    config = _tiny()
    result = run(make_instance("F1", 10, 0), config)
    assert sorted(result.best_at_checkpoint) == [90, 270]
    assert result.best_at_checkpoint[270] == result.final_best.fitness


def test_checkpoint_values_non_increasing():
    config = _tiny(outer=5, checkpoints=(1, 2, 3, 4, 5))
    result = run(make_instance("F1", 10, 2), config)
    values = [result.best_at_checkpoint[k] for k in sorted(result.best_at_checkpoint)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_trace_is_monotone_non_increasing():
    result = run(make_instance("F2", 10, 3), _tiny(outer=6, checkpoints=()))
    assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))
    assert result.trace[0] == result.initial_best


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
    serial, sum_serial = run_batch(("F1", 10, 3), config, n_runs=3, workers=1)
    parallel, sum_parallel = run_batch(("F1", 10, 3), config, n_runs=3, workers=2)
    assert [r.final_best.fitness for r in serial] == [
        r.final_best.fitness for r in parallel
    ]
    assert sum_serial == sum_parallel


def test_run_batch_accepts_prebuilt_instance():
    inst = make_instance("F1", 10, 3)
    config = _tiny(seed=5)
    results, summary = run_batch(inst, config, n_runs=2)
    assert len(results) == 2
    assert summary.n_runs == 2
    # prototype instance must stay untouched
    assert inst.eval_count == 0


def test_run_batch_base_seed_overrides_config_seed():
    config = _tiny(seed=5)
    a, _ = run_batch(("F1", 10, 3), config, n_runs=1, base_seed=99)
    b, _ = run_batch(("F1", 10, 3), _tiny(seed=99), n_runs=1)
    assert a[0].final_best.fitness == b[0].final_best.fitness


def test_summary_order_statistics():
    config = _tiny(seed=1)
    results, _ = run_batch(("F1", 10, 0), config, n_runs=3)
    for r, fake in zip(results, (2.0, 8.0, 5.0)):
        r.final_best.fitness = fake
    s = summarize(results)
    assert s.best == 2.0
    assert s.median == 5.0
    assert s.worst == 8.0
    assert s.mean == pytest.approx(5.0)
    assert s.stddev == pytest.approx(3.0)


def test_summary_single_run_stddev_zero():
    config = _tiny(seed=1)
    results, summary = run_batch(("F1", 10, 0), config, n_runs=1)
    assert summary.stddev == 0.0
    assert summary.best == summary.median == summary.worst


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_config_validation():
    with pytest.raises(ValueError, match="absorb"):
        _tiny(pop=200, harmony=50, de=0, outer=2, checkpoints=(2,)).validate()
    with pytest.raises(ValueError):
        _tiny(checkpoints=(5,), outer=3).validate()
    with pytest.raises(ValueError):
        _tiny(checkpoints=(2, 1)).validate()
    with pytest.raises(ValueError):
        _tiny(pop=3).validate()
    _tiny().validate()


def test_run_batch_rejects_zero_runs():
    with pytest.raises(ValueError):
        run_batch(("F1", 10, 0), _tiny(), n_runs=0)


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
