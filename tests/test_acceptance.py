"""End-to-end acceptance checklist.

Each test covers one numbered criterion, records a PASS/FAIL line (echoed in
the terminal summary and printed when run with -s), and asserts the stated
tolerances. Nothing here is mocked: every check drives the real library.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np

from lsgo_hybrid.benchmarks import make_instance, random_orthogonal
from lsgo_hybrid.cli import _fe_label
from lsgo_hybrid.de import DeParams, de_run
from lsgo_hybrid.harmony import HarmonyParams, harmony_run
from lsgo_hybrid.hybrid import HybridConfig, fe_budget, run, run_batch, scaled
from lsgo_hybrid.population import Population
from lsgo_hybrid.stats import full_report, reference_median_matrix
from lsgo_hybrid.tuning import (
    PARAM_BOUNDS,
    ParamVector,
    TunerConfig,
    load_specialist_params,
    probe_config,
    tune,
)

RESULTS = []


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        RESULTS.append((number, name, "FAIL"))
        print(f"CRITERION {number} ({name}): FAIL")
        raise
    RESULTS.append((number, name, "PASS"))
    print(f"CRITERION {number} ({name}): PASS")


ALGORITHMS = [
    "IMHS+MDE", "MA-SW-Chains", "2S-Ensemble", "MOS-SOCO2011", "jDElscop",
    "GaDE", "MOS-CEC2012", "jDEsps", "MOS-CEC2013", "DECC-G", "CC-CMA-ES",
]

EXPECTED_RANKS = {
    "IMHS+MDE":     [11, 10, 11, 7, 1, 11, 7, 6, 3, 11, 7, 11, 7, 7, 8],
    "MA-SW-Chains": [8, 7, 7, 5, 3, 3, 5, 4, 1, 1, 4, 8, 3, 5, 3],
    "2S-Ensemble":  [1, 2, 6, 9, 2, 6, 4, 9, 2, 6, 5, 9, 4, 4, 2],
    "MOS-SOCO2011": [1, 4, 1, 10, 9, 8, 6, 10, 10, 9, 6, 2, 6, 6, 11],
    "jDElscop":     [1, 2, 5, 6, 5, 1, 11, 5, 6, 3, 9, 5, 11, 11, 7],
    "GaDE":         [1, 1, 4, 8, 8, 10, 10, 7, 9, 8, 11, 7, 9, 10, 10],
    "MOS-CEC2012":  [1, 11, 9, 2, 10, 9, 2, 1, 11, 10, 2, 3, 2, 3, 4],
    "jDEsps":       [7, 5, 2, 4, 4, 2, 9, 3, 4, 2, 8, 4, 10, 9, 9],
    "MOS-CEC2013":  [1, 6, 8, 1, 6, 4, 1, 2, 7, 5, 1, 1, 1, 1, 1],
    "DECC-G":       [10, 8, 10, 11, 7, 5, 8, 11, 8, 7, 10, 10, 8, 8, 5],
    "CC-CMA-ES":    [9, 9, 3, 3, 11, 7, 3, 8, 5, 4, 3, 6, 5, 2, 6],
}

EXPECTED_NBEST = [1, 2, 1, 2, 2, 2, 2, 0, 8, 0, 0]

EXPECTED_MEAN_RANKS = [7.8667, 4.4667, 4.9333, 6.7667, 6.0667, 7.7,
                       5.5, 5.4667, 3.2333, 8.4, 5.6]

EXPECTED_SCORES = {
    "IMHS+MDE":     [1, 37, 29, 12, 4],
    "MA-SW-Chains": [16, 50, 74, 29, 15],
    "2S-Ensemble":  [51, 40, 38, 26, 18],
    "MOS-SOCO2011": [62, 15, 12, 34, 0],
    "jDElscop":     [53, 43, 35, 10, 6],
    "GaDE":         [62, 10, 12, 9, 1],
    "MOS-CEC2012":  [27, 39, 44, 48, 12],
    "jDEsps":       [34, 44, 49, 15, 2],
    "MOS-CEC2013":  [37, 70, 59, 75, 25],
    "DECC-G":       [6, 20, 11, 9, 10],
    "CC-CMA-ES":    [19, 36, 41, 36, 8],
}

EXPECTED_GROUP_RANKS = {
    "IMHS+MDE":     [11, 7, 8, 8, 8],
    "MA-SW-Chains": [9, 2, 1, 5, 3],
    "2S-Ensemble":  [4, 5, 6, 6, 2],
    "MOS-SOCO2011": [1, 10, 9, 4, 11],
    "jDElscop":     [3, 4, 7, 9, 7],
    "GaDE":         [1, 11, 9, 10, 10],
    "MOS-CEC2012":  [7, 6, 4, 2, 4],
    "jDEsps":       [6, 3, 3, 7, 9],
    "MOS-CEC2013":  [5, 1, 2, 1, 1],
    "DECC-G":       [10, 9, 11, 10, 5],
    "CC-CMA-ES":    [8, 8, 5, 3, 6],
}

SPECIALIST_TABLE = {
    "F1": (0.30, 0.36, 0.30), "F2": (0.74, 0.42, 0.30),
    "F3": (0.40, 0.78, 0.51), "F4": (0.34, 0.94, 0.47),
    "F5": (0.10, 0.40, 0.29), "F6": (0.56, 0.83, 0.69),
    "F7": (0.42, 0.79, 0.48), "F8": (0.34, 0.94, 0.39),
    "F9": (0.37, 0.15, 0.37), "F10": (0.15, 0.20, 0.56),
    "F11": (0.49, 0.80, 0.46), "F12": (0.45, 0.77, 0.49),
    "F13": (0.39, 0.76, 0.51), "F14": (0.41, 0.79, 0.48),
    "F15": (0.34, 0.14, 0.51),
}


def test_criterion_1_reference_tables_reproduced():
    with criterion(1, "reference ranking tables"):
        start = time.perf_counter()
        report = full_report(reference_median_matrix())
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"report took {elapsed:.2f}s, budget is 1s"

        assert report["algorithms"] == ALGORITHMS
        for i, name in enumerate(ALGORITHMS):
            assert report["competition_ranks"][i] == EXPECTED_RANKS[name], name
        assert report["nbest"] == EXPECTED_NBEST
        for got, want in zip(report["friedman"]["mean_ranks"],
                             EXPECTED_MEAN_RANKS):
            assert abs(got - want) <= 0.005
        for i, name in enumerate(ALGORITHMS):
            assert report["group_scores"][i] == EXPECTED_SCORES[name], name
            assert report["group_ranks"][i] == EXPECTED_GROUP_RANKS[name], name


def test_criterion_2_omnibus_tests():
    with criterion(2, "omnibus test statistics"):
        report = full_report(reference_median_matrix())
        fr = report["friedman"]
        assert abs(fr["statistic_uncorrected"] - 33.50) <= 1.0
        assert abs(fr["statistic"] - 33.50) <= 1.0
        assert fr["p_value"] < 0.001
        assert fr["dof"] == 10

        qu = report["quade"]
        weighted = dict(zip(ALGORITHMS, qu["weighted_ranks"]))
        assert abs(weighted["IMHS+MDE"] - 6.65) <= 0.5
        assert abs(weighted["MOS-CEC2013"] - 2.6542) <= 0.5
        assert list(qu["dof"]) == [10, 140]


def test_criterion_3_budget_accounting():
    with criterion(3, "evaluation budget accounting"):
        default = HybridConfig()
        assert fe_budget(default) == 3_000_000
        per_cycle = (default.harmony.max_iterations
                     + default.de.max_iterations * default.population_size)
        assert {c: c * per_cycle for c in default.checkpoints} == {
            4: 120_000, 20: 600_000, 100: 3_000_000,
        }
        assert fe_budget(scaled(default, 0.05)) == 150_000

        small = scaled(default, 0.002)
        instance = make_instance("F1", 10, 0)
        result = run(instance, small)
        assert instance.eval_count == fe_budget(small)
        assert result.fe_consumed == fe_budget(small)
        # a results table reports checkpoint c, at c * per_cycle evaluations,
        # as trace[2c], the best after cycle c
        assert small.per_cycle == (small.harmony.max_iterations
                                   + small.de.max_iterations * small.population_size)
        assert [_fe_label(c * small.per_cycle, fe_budget(small))
                for c in small.checkpoints] == ["fe_880", "fe_4400", "fe_final"]
        assert len(result.trace) == 2 * small.outer_iterations + 1
        assert result.trace[2 * small.checkpoints[-1]] == result.final_best.fitness


def test_criterion_4_benchmark_invariants():
    with criterion(4, "benchmark instance invariants"):
        probe_rng = np.random.default_rng(99)
        for fid in [f"F{i}" for i in range(1, 16)]:
            for seed in (0, 1, 2):
                inst = make_instance(fid, 50, seed)
                assert inst.evaluate(inst.optimum_preimage) <= 1e-6, (fid, seed)
                assert np.array_equal(np.sort(inst.permutation),
                                      np.arange(50)), (fid, seed)
                for sub in inst.subcomponents:
                    if sub.rotation is None:
                        continue
                    r = sub.rotation
                    assert np.linalg.norm(
                        r @ r.T - np.eye(sub.size)) <= 1e-9, (fid, seed)
                    z = probe_rng.normal(size=sub.size)
                    assert abs(np.linalg.norm(r @ z)
                               - np.linalg.norm(z)) <= 1e-9, (fid, seed)

        rot_rng = np.random.default_rng(4)
        rot = random_orthogonal(50, rot_rng)
        for _ in range(5):
            z = rot_rng.uniform(-100, 100, size=50)
            fz = z @ z
            rz = rot @ z
            assert abs(rz @ rz - fz) <= 1e-9 * max(1.0, fz)


def test_criterion_5_reduced_budget_convergence():
    with criterion(5, "reduced-budget optimiser run"):
        config = scaled(HybridConfig(), 0.05)
        assert fe_budget(config) == 150_000
        start = time.perf_counter()
        results, _summary = run_batch(make_instance("F1", 50, 0), config, n_runs=5)
        elapsed = time.perf_counter() - start
        assert elapsed <= 600, f"5 runs took {elapsed:.0f}s"
        assert max(r.wall_time_s for r in results) <= 120

        for r in results:
            trace = np.asarray(r.trace)
            assert np.all(np.diff(trace) <= 0), "trace must never worsen"
            assert r.fe_consumed == 150_000

        median_initial = statistics.median(r.trace[0] for r in results)
        median_final = statistics.median(
            r.final_best.fitness for r in results)
        assert median_final * 1e4 <= median_initial, (
            f"final {median_final:.3e} vs initial {median_initial:.3e}")

        redo = run(make_instance("F1", 50, 0), config, run_index=2)
        ref = results[2]
        assert redo.final_best.fitness == ref.final_best.fitness
        assert np.array_equal(redo.final_best.x, ref.final_best.x)
        assert list(redo.trace) == list(ref.trace)


def test_criterion_6_plateau_leaves_pool_untouched():
    with criterion(6, "no-improvement pool stability"):
        rng = np.random.default_rng(6)
        x = rng.uniform(-5.0, 5.0, size=(10, 5))
        pool = Population(x.copy(), np.full(10, 7.0))
        snapshot = sorted(
            (tuple(row), fit)
            for row, fit in zip(pool.x.tolist(), pool.fitness.tolist())
        )

        constant = lambda v: 7.0  # noqa: E731
        spent_de = de_run(pool, DeParams(max_iterations=1000), constant,
                          np.random.default_rng(60), bounds=(-5.0, 5.0))
        spent_h = harmony_run(pool, HarmonyParams(max_iterations=1000),
                              constant, np.random.default_rng(61),
                              bounds=(-5.0, 5.0))
        assert spent_de == 10_000
        assert spent_h == 1_000

        after = sorted(
            (tuple(row), fit)
            for row, fit in zip(pool.x.tolist(), pool.fitness.tolist())
        )
        assert after == snapshot


def test_criterion_7_specialist_parameter_table():
    with criterion(7, "per-function specialist parameters"):
        for fid, (par, cr, f) in SPECIALIST_TABLE.items():
            got = load_specialist_params(fid)
            assert abs(got.par - par) <= 1e-12, fid
            assert abs(got.cr - cr) <= 1e-12, fid
            assert abs(got.f - f) <= 1e-12, fid


def test_criterion_8_tuner_contract():
    with criterion(8, "parameter tuner contract"):
        instance = make_instance("F5", 10, 0)
        config = TunerConfig(ga_population=4, ga_generations=0,
                             inner_budget=401, probes_per_eval=1, seed=11)
        vector, fitness = tune(instance.fresh_copy(), config)
        for value, (lo, hi) in zip((vector.par, vector.cr, vector.f),
                                   PARAM_BOUNDS):
            assert lo <= value <= hi

        again, fitness_again = tune(instance.fresh_copy(), config)
        assert again == vector
        assert fitness_again == fitness

        # Zero generations must hand back the best member of the initial
        # population; replay the seeded draws and probe runs to check.
        rng = np.random.default_rng(np.random.SeedSequence([11]))
        lo = np.array([b[0] for b in PARAM_BOUNDS])
        hi = np.array([b[1] for b in PARAM_BOUNDS])
        genomes = rng.uniform(lo, hi, size=(4, 3))
        scores = []
        for genome in genomes:
            seeds = rng.integers(0, 2**63, size=1)
            cfg = probe_config(ParamVector(*genome), 401, int(seeds[0]))
            scores.append(run(instance.fresh_copy(), cfg).final_best.fitness)
        best = int(np.argmin(scores))
        assert vector == ParamVector(*genomes[best])
        assert fitness == scores[best]

        evolved = TunerConfig(ga_population=4, ga_generations=2,
                              inner_budget=401, probes_per_eval=1, seed=11)
        _, evolved_fitness = tune(instance.fresh_copy(), evolved)
        assert evolved_fitness <= fitness
