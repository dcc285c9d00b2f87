import json
import re
from importlib import resources

import numpy as np
import pytest

from lsgo_hybrid import hybrid
from lsgo_hybrid.benchmarks import FUNCTION_IDS, make_instance
from lsgo_hybrid.de import DeParams
from lsgo_hybrid.harmony import HarmonyParams, harmony_run
from lsgo_hybrid.hybrid import HybridConfig, fe_budget, run
from lsgo_hybrid.tuning import (
    PARAM_BOUNDS,
    ParamVector,
    TunerConfig,
    hybrid_config_for,
    load_specialist_params,
    probe_config,
    read_param_vector,
    tune,
)


def _tiny_tuner(**overrides):
    base = dict(ga_population=3, ga_generations=0, inner_budget=401,
                probes_per_eval=1, seed=0)
    base.update(overrides)
    return TunerConfig(**base)


def test_unknown_function_rejected():
    with pytest.raises(KeyError):
        load_specialist_params("F16")


def test_bundled_table_holds_one_triple_per_function_id():
    text = resources.files("lsgo_hybrid.data").joinpath(
        "specialist_params.json").read_text("utf-8")
    table = json.loads(text)
    assert tuple(table) == FUNCTION_IDS
    for fid, entry in table.items():
        assert set(entry) == {"par", "cr", "f"}, fid


def test_read_param_vector_checks_each_field():
    got = read_param_vector({"par": 0, "cr": 1, "f": 0.5, "note": "x"}, "p")
    assert got == ParamVector(par=0.0, cr=1.0, f=0.5)
    assert isinstance(got.par, float)
    for payload, message in [
        ([0.3, 0.9, 0.5], "p must hold a JSON object, not a list"),
        ({"par": 0.3, "f": 0.5}, "p has no cr field"),
        ({"par": 0.3, "cr": "high", "f": 0.5}, "p has non-numeric cr 'high'"),
        ({"par": 0.3, "cr": True, "f": 0.5}, "p has non-numeric cr True"),
        ({"par": 0.3, "cr": 0.9, "f": 2.5}, "p has f=2.5 outside [0.0, 2.0]"),
    ]:
        with pytest.raises(ValueError) as info:
            read_param_vector(payload, "p")
        assert str(info.value) == message


def test_param_vector_bounds_enforced():
    # the run configs are the one judge of the triple's ranges
    for params, message in [
        (HarmonyParams(par=1.2), "par=1.2 outside [0.0, 1.0]"),
        (DeParams(cr=-0.1), "cr=-0.1 outside [0.0, 1.0]"),
        (DeParams(f=2.1), "f=2.1 outside [0.0, 2.0]"),
    ]:
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            params.validate()
    HarmonyParams(par=0.0).validate()
    HarmonyParams(par=1.0).validate()
    DeParams(cr=0.0, f=0.0).validate()
    DeParams(cr=1.0, f=2.0).validate()
    # a vector built in Python is judged when a run validates its config,
    # before the first evaluation
    base = HybridConfig(population_size=20, outer_iterations=1,
                        harmony=HarmonyParams(max_iterations=30),
                        de=DeParams(max_iterations=1), checkpoints=(1,))
    inst = make_instance("F1", 10, 0)
    with pytest.raises(ValueError, match=r"^par=1\.2 outside \[0\.0, 1\.0\]$"):
        run(inst, hybrid_config_for(ParamVector(1.2, 0.5, 0.5), base))
    assert inst.eval_count == 0


def test_tuner_config_validation():
    _tiny_tuner().validate()
    with pytest.raises(ValueError):
        _tiny_tuner(ga_population=1).validate()
    with pytest.raises(ValueError):
        _tiny_tuner(ga_generations=-1).validate()
    with pytest.raises(ValueError):
        _tiny_tuner(probes_per_eval=0).validate()
    with pytest.raises(ValueError):
        _tiny_tuner(inner_budget=30).validate()


_REFUSALS = {"sweep": "too small for one differential sweep",
             "harmony": "leaves no harmony iteration"}


POOL = HybridConfig().population_size


@pytest.mark.parametrize("inner_budget, pool, verdict", [
    (299, POOL, "sweep"), (300, POOL, "harmony"), (401, POOL, "ok"),
    (600, POOL, "harmony"), (601, POOL, "ok"),
])
def test_probe_split_needs_a_sweep_and_a_harmony_iteration(inner_budget, pool,
                                                           verdict):
    # the pool's evaluation is charged to the harmony share, so the share
    # must exceed the pool for one harmony iteration to run
    tuner = _tiny_tuner(inner_budget=inner_budget)
    vector = ParamVector(0.4, 0.9, 0.5)
    if verdict == "ok":
        tuner.validate()
        cfg = probe_config(vector, inner_budget, seed=0)
        assert cfg.harmony.max_iterations > pool
    else:
        with pytest.raises(ValueError, match=_REFUSALS[verdict]):
            tuner.validate()
        with pytest.raises(ValueError, match=_REFUSALS[verdict]):
            probe_config(vector, inner_budget, seed=0)


def test_probe_runs_at_the_pool_of_run():
    cfg = probe_config(ParamVector(0.4, 0.9, 0.5), 601, seed=0)
    assert cfg.population_size == POOL


def _accepted(inner_budget):
    try:
        _tiny_tuner(inner_budget=inner_budget).validate()
    except ValueError:
        return False
    return True


def test_probe_at_the_smallest_accepted_budget_runs_a_harmony_iteration(monkeypatch):
    smallest = next(b for b in range(1, 10 * POOL) if _accepted(b))
    assert smallest == 401
    spent = []

    def counting(*args, **kwargs):
        spent.append(harmony_run(*args, **kwargs))
        return spent[-1]

    monkeypatch.setattr(hybrid, "harmony_run", counting)
    inst = make_instance("F1", 10, 0)
    run(inst, probe_config(ParamVector(0.4, 0.9, 0.5), smallest, seed=0))
    assert spent == [1]
    assert inst.eval_count == smallest


def test_probe_config_budget_is_exact():
    vector = ParamVector(0.4, 0.9, 0.5)
    cfg = probe_config(vector, 30_000, seed=1)
    assert fe_budget(cfg) == 30_000
    assert cfg.harmony.max_iterations == 10_000
    assert cfg.de.max_iterations == 100
    assert cfg.harmony.par == 0.4
    assert cfg.de.cr == 0.9 and cfg.de.f == 0.5

    cfg = probe_config(vector, 777, seed=1)
    assert fe_budget(cfg) == 777


def test_probe_run_consumes_exactly_the_inner_budget():
    inst = make_instance("F1", 10, 0)
    cfg = probe_config(ParamVector(0.4, 0.9, 0.5), 601, seed=2)
    run(inst, cfg)
    assert inst.eval_count == 601


def test_tune_output_in_bounds_and_deterministic():
    inst = make_instance("F2", 10, 1)
    config = _tiny_tuner(ga_generations=2, seed=11)
    a_vec, a_fit = tune(inst, config)
    b_vec, b_fit = tune(inst, config)
    assert a_vec == b_vec
    assert a_fit == b_fit
    for value, (lo, hi) in zip((a_vec.par, a_vec.cr, a_vec.f), PARAM_BOUNDS):
        assert lo <= value <= hi


def test_zero_generations_returns_best_of_initial_population():
    inst = make_instance("F1", 10, 3)
    config = _tiny_tuner(seed=7)
    vector, fitness = tune(inst, config)

    # re-derive the initial population and its probe outcomes independently
    rng = np.random.default_rng(np.random.SeedSequence([7]))
    lo = np.array([b[0] for b in PARAM_BOUNDS])
    hi = np.array([b[1] for b in PARAM_BOUNDS])
    genomes = rng.uniform(lo, hi, size=(config.ga_population, 3))
    outcomes = []
    for genes in genomes:
        seeds = rng.integers(0, 2**63, size=config.probes_per_eval)
        total = 0.0
        for s in seeds:
            cfg = probe_config(ParamVector(*genes), config.inner_budget, int(s))
            total += run(inst.fresh_copy(), cfg).final_best.fitness
        outcomes.append(total / len(seeds))
    best = int(np.argmin(outcomes))
    assert vector == ParamVector(*genomes[best])
    assert fitness == outcomes[best]


def test_tune_takes_its_seed_as_an_integer():
    inst = make_instance("F1", 10, 0)
    with pytest.raises(ValueError, match=r"^seeds must be integers, got seed=2\.7$"):
        tune(inst.fresh_copy(), _tiny_tuner(seed=2.7))
    # a numpy integer gives the result of the Python integer
    assert (tune(inst.fresh_copy(), _tiny_tuner(seed=np.int64(7)))
            == tune(inst.fresh_copy(), _tiny_tuner(seed=7)))


def test_elitism_never_loses_the_best_probe_score():
    inst = make_instance("F1", 10, 5)
    base = tune(inst, _tiny_tuner(seed=9))[1]
    evolved = tune(inst, _tiny_tuner(seed=9, ga_generations=3))[1]
    assert evolved <= base


def test_hybrid_config_substitution():
    vector = ParamVector(0.11, 0.22, 0.33)
    cfg = hybrid_config_for(vector, HybridConfig())
    assert cfg.harmony.par == 0.11
    assert cfg.de.cr == 0.22
    assert cfg.de.f == 0.33
    assert fe_budget(cfg) == fe_budget(HybridConfig())
    base = HybridConfig(population_size=20)
    assert hybrid_config_for(vector, base).population_size == 20
