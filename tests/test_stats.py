import csv
import hashlib
import itertools

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lsgo_hybrid.benchmarks import FUNCTION_IDS, make_instance
from lsgo_hybrid.hybrid import final_stats
from lsgo_hybrid.stats import fixture
from lsgo_hybrid.stats import (
    DEFAULT_GROUPS,
    METRICS,
    MedianMatrix,
    beta_inc,
    chi2_sf,
    f1_scores,
    f_sf,
    friedman,
    full_report,
    nbest,
    points_for_rank,
    quade,
    rank_column,
    rank_matrix,
    read_results,
    reference_median_matrix,
    write_report,
)
from lsgo_hybrid.stats.fixture import _load

# -- special functions against an independent implementation -----------------


def test_beta_inc_matches_scipy():
    for a in (0.5, 1.0, 2.0, 5.0, 70.0):
        for b in (0.5, 1.0, 3.5, 8.0, 70.0):
            for x in (0.01, 0.2, 0.5, 0.8, 0.99):
                ours = beta_inc(a, b, x)
                ref = float(scipy.special.betainc(a, b, x))
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_chi2_sf_matches_scipy():
    for df in (1, 2, 3, 4, 9, 10, 11, 30, 31):
        for x in (1e-6, 0.1, 1.0, 5.0, 20.0, 33.866, 80.0, 300.0, 1400.0):
            assert chi2_sf(x, df) == pytest.approx(
                float(scipy.stats.chi2.sf(x, df)), rel=1e-10, abs=1e-300
            )


def test_f_sf_matches_scipy():
    for dfn, dfd in ((1, 1), (3, 10), (10, 140), (5, 60)):
        for x in (0.1, 1.0, 2.5, 4.73, 10.0):
            assert f_sf(x, dfn, dfd) == pytest.approx(
                float(scipy.stats.f.sf(x, dfn, dfd)), rel=1e-10, abs=1e-300
            )


def test_tail_edge_cases():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(np.inf, 5) == 0.0
    assert f_sf(0.0, 3, 7) == 1.0


def test_chi2_sf_takes_integer_degrees_of_freedom_only():
    with pytest.raises(ValueError, match="positive integer"):
        chi2_sf(3.0, 2.5)


# -- ranking ------------------------------------------------------------------


def test_competition_ranks_spec_column():
    # six exact-zero medians tie at rank 1, the largest value ranks last
    column = [4595495.0, 6.15e-13, 0.0, 0.0, 0.0, 0.0, 0.0, 2.88e-23, 0.0,
              2.33e-06, 5.56e-09]
    ranks = rank_column(column, "competition")
    assert ranks[0] == 11
    assert sum(1 for r in ranks if r == 1) == 6
    avg = rank_column(column, "average")
    for value, rank in zip(column, avg):
        if value == 0.0:
            assert rank == pytest.approx(3.5)


def test_all_distinct_ranks():
    for mode in ("competition", "average"):
        assert rank_column([3.0, 1.0, 2.0], mode).tolist() == [3, 1, 2]


def test_rank_column_rejects_empty_and_bad_mode():
    with pytest.raises(ValueError):
        rank_column([], "competition")
    with pytest.raises(ValueError):
        rank_column([1.0], "lexicographic")


@given(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 7.0, 9.0]),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_competition_rank_is_one_plus_count_less(values):
    ranks = rank_column(values, "competition")
    arr = np.asarray(values)
    for v, r in zip(values, ranks):
        assert r == 1 + int(np.sum(arr < v))


@given(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 9.0]),
                min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_average_ranks_sum_to_triangular_number(values):
    ranks = rank_column(values, "average")
    k = len(values)
    assert float(np.sum(ranks)) == pytest.approx(k * (k + 1) / 2)


def test_average_rank_columns_of_fixture_sum_correctly():
    matrix = reference_median_matrix()
    ranks = rank_matrix(matrix, "average")
    k = len(matrix.algorithms)
    sums = ranks.sum(axis=0)
    assert np.allclose(sums, k * (k + 1) / 2)


def test_removing_an_algorithm_preserves_relative_order():
    matrix = reference_median_matrix()
    full = rank_matrix(matrix, "competition")
    reduced = MedianMatrix(matrix.algorithms[1:], matrix.functions,
                           matrix.values[1:])
    sub = rank_matrix(reduced, "competition")
    for j in range(len(matrix.functions)):
        for a in range(len(reduced.algorithms)):
            for b in range(len(reduced.algorithms)):
                before = np.sign(full[a + 1, j] - full[b + 1, j])
                after = np.sign(sub[a, j] - sub[b, j])
                assert before == after


def test_nbest_counts_rank_one_entries():
    ranks = np.array([[1, 2, 1], [2, 1, 1], [3, 3, 1]])
    assert nbest(ranks).tolist() == [2, 2, 1]


def test_points_map():
    expected = {1: 25, 2: 18, 3: 15, 4: 12, 5: 10, 6: 8, 7: 6, 8: 4, 9: 2,
                10: 1, 11: 0, 12: 0, 37: 0}
    for rank, points in expected.items():
        assert points_for_rank(rank) == points


def test_f1_scores_spec_examples():
    functions = ["F1", "F2", "F3"]
    groups = (("F1", "F2", "F3"),)
    ranks = np.array([[11, 10, 11], [1, 4, 1]])
    scores, group_ranks = f1_scores(ranks, functions, groups)
    assert scores[0, 0] == 1    # 0 + 1 + 0
    assert scores[1, 0] == 62   # 25 + 12 + 25
    assert group_ranks[1, 0] == 1 and group_ranks[0, 0] == 2


def test_f1_scores_rank_eleven_cutoff():
    functions = ["F1", "F2"]
    scores, _ = f1_scores(np.full((1, 2), 11), functions, (("F1", "F2"),))
    assert scores[0, 0] == 0


def test_f1_scores_unknown_group_member():
    with pytest.raises(ValueError, match="unknown"):
        f1_scores(np.ones((1, 1), dtype=int), ["F1"], (("F9",),))


def test_f1_invariant_under_monotone_transform():
    matrix = reference_median_matrix()
    ranks = rank_matrix(matrix, "competition")
    scores, _ = f1_scores(ranks, matrix.functions)
    warped = matrix.values.copy()
    warped[:, 3] = np.arctan(warped[:, 3] / 1e9)  # strictly monotone
    ranks2 = rank_matrix(
        MedianMatrix(matrix.algorithms, matrix.functions, warped), "competition"
    )
    scores2, _ = f1_scores(ranks2, matrix.functions)
    assert np.array_equal(scores, scores2)


# -- omnibus tests -------------------------------------------------------------


def test_friedman_matches_scipy_without_ties():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(6, 9))
    matrix = MedianMatrix([f"a{i}" for i in range(6)],
                          [f"F{j}" for j in range(9)], values)
    ours = friedman(matrix)
    ref_stat, ref_p = scipy.stats.friedmanchisquare(*values)
    assert ours["statistic"] == pytest.approx(float(ref_stat), rel=1e-10)
    assert ours["p_value"] == pytest.approx(float(ref_p), rel=1e-10)
    assert ours["statistic"] == pytest.approx(ours["statistic_uncorrected"], rel=1e-12)


def test_friedman_matches_scipy_with_ties():
    matrix = reference_median_matrix()
    ours = friedman(matrix)
    ref_stat, ref_p = scipy.stats.friedmanchisquare(*matrix.values)
    # scipy applies the same tie correction
    assert ours["statistic"] == pytest.approx(float(ref_stat), rel=1e-10)
    assert ours["p_value"] == pytest.approx(float(ref_p), rel=1e-10)
    assert ours["statistic_uncorrected"] < ours["statistic"]


def test_friedman_dominance_gives_exact_mean_rank_one():
    values = np.vstack([np.full(5, 1.0), np.full(5, 2.0), np.full(5, 3.0)])
    matrix = MedianMatrix(["win", "mid", "lose"], [f"F{j}" for j in range(5)],
                          values)
    result = friedman(matrix)
    assert result["mean_ranks"][0] == 1.0
    assert result["mean_ranks"][2] == 3.0
    assert result["dof"] == 2


def test_friedman_rejects_degenerate_input():
    with pytest.raises(ValueError):
        friedman(MedianMatrix(["a"], ["F1", "F2"], np.ones((1, 2))))
    with pytest.raises(ValueError):
        friedman(MedianMatrix(["a", "b"], ["F1"], np.ones((2, 1))))


def test_quade_dominance_gives_exact_weighted_rank_one():
    rng = np.random.default_rng(1)
    base = rng.uniform(1, 2, size=5)
    values = np.vstack([base, base + 1.0, base + 2.5])
    matrix = MedianMatrix(["win", "mid", "lose"], [f"F{j}" for j in range(5)],
                          values)
    result = quade(matrix)
    assert result["weighted_ranks"][0] == 1.0
    assert result["weighted_ranks"][2] == 3.0
    assert result["dof"] == [2, 8]


def test_quade_weighted_ranks_bounded():
    matrix = reference_median_matrix()
    result = quade(matrix)
    k = len(matrix.algorithms)
    assert min(result["weighted_ranks"]) >= 1.0
    assert max(result["weighted_ranks"]) <= k
    # function weights are average-tie ranks of the 15 ranges
    assert sorted(result["function_weights"]) == list(range(1, 16))


def test_quade_rejects_degenerate_input():
    with pytest.raises(ValueError):
        quade(MedianMatrix(["a"], ["F1", "F2"], np.ones((1, 2))))


# -- fixture and report --------------------------------------------------------


def test_fixture_shape_and_algorithms():
    matrix = reference_median_matrix()
    assert len(matrix.algorithms) == 11
    assert matrix.algorithms[0] == "IMHS+MDE"
    assert matrix.values.shape == (11, 15)
    tables = _load()
    for metric in ("best", "median", "worst", "mean", "stddev"):
        assert tables[metric].values.shape == (11, 15)


def test_fixture_spot_values():
    matrix = reference_median_matrix()
    imhs = matrix.values[matrix.algorithms.index("IMHS+MDE")]
    assert imhs[0] == pytest.approx(4595495.0)
    assert imhs[14] == pytest.approx(36003393.0)
    mos13 = matrix.values[matrix.algorithms.index("MOS-CEC2013")]
    assert mos13[0] == 0.0
    assert mos13[11] == pytest.approx(15.6)


def test_read_results_takes_both_header_forms():
    plain = read_results("algorithm,F1,F2\nalpha,1.0,5.0\n\nbeta,2,4e0\n", "plain.csv")
    assert list(plain) == ["median"]
    assert plain["median"].algorithms == ["alpha", "beta"]
    assert plain["median"].functions == ["F1", "F2"]
    assert plain["median"].values.tolist() == [[1.0, 5.0], [2.0, 4.0]]
    table = read_results("algorithm,metric,F1\nalpha,best,0.5\nalpha,Median,1.0\n"
                         "beta,median,2.0\n", "table.csv")
    assert sorted(table) == ["best", "median"]
    assert table["best"].algorithms == ["alpha"]
    assert table["median"].values.tolist() == [[1.0], [2.0]]


@pytest.fixture
def bundled(monkeypatch):
    """The bundled CSV text, and a function that serves an edited one."""
    text = fixture._read_bundled(fixture._CSV_NAME).decode("ascii")

    def serve(edited, digest=None):
        raw = edited.encode("ascii")
        files = {fixture._CSV_NAME: raw,
                 fixture._HASH_NAME: (digest or hashlib.sha256(raw).hexdigest()).encode()}
        monkeypatch.setattr(fixture, "_read_bundled", files.__getitem__)
        fixture._load.cache_clear()

    yield text, serve
    fixture._load.cache_clear()


def _swap_first_two_median_rows(text):
    lines = text.splitlines(keepends=True)
    i, j = [k for k, line in enumerate(lines) if ",median," in line][:2]
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


@pytest.mark.parametrize("edit", [
    lambda text: "".join(line for line in text.splitlines(keepends=True)
                         if ",stddev," not in line),
    lambda text: text.replace(",stddev,", ",spread,"),
    lambda text: text.replace(",F15\n", ",F16\n", 1),
    _swap_first_two_median_rows,
], ids=["missing-metric", "other-metric", "other-function", "other-order"])
def test_bundled_table_must_hold_every_metric_of_the_same_algorithms(bundled, edit):
    text, serve = bundled
    serve(text)
    assert reference_median_matrix().values.shape == (11, 15)
    serve(edit(text))
    with pytest.raises(RuntimeError, match="must hold the metrics"):
        reference_median_matrix()


def test_bundled_table_checks_its_sha256(bundled):
    text, serve = bundled
    serve(text, digest="0" * 64)
    with pytest.raises(RuntimeError, match="corrupt"):
        reference_median_matrix()


def test_full_report_is_json_serialisable():
    import json

    bundled = reference_median_matrix()
    ties = MedianMatrix(["a", "b", "c"], ["F1", "F2", "F3"], np.ones((3, 3)))
    for matrix in (bundled, ties):
        report = full_report(matrix)
        assert json.loads(json.dumps(report, allow_nan=False)) == report
    # the all-ties matrix takes both early returns: no evidence of a difference
    assert (report["friedman"]["statistic"], report["friedman"]["p_value"]) == (0.0, 1.0)
    assert (report["quade"]["statistic"], report["quade"]["p_value"]) == (0.0, 1.0)


def test_quade_perfect_agreement_diverges():
    # every function ranks the algorithms alike over equal ranges: a == b > 0
    matrix = MedianMatrix(["a", "b", "c"], ["F1", "F2", "F3"],
                          np.repeat([[1.0], [2.0], [3.0]], 3, axis=1))
    result = quade(matrix)
    assert (result["statistic"], result["p_value"]) == (float("inf"), 0.0)


@pytest.mark.parametrize("ties", [False, True], ids=["bundled", "all-ties"])
def test_text_report_shows_every_csv_row(tmp_path, ties):
    matrix = (MedianMatrix(["a", "b", "c"], ["F1", "F2", "F3"], np.ones((3, 3)))
              if ties else reference_median_matrix())
    write_report(full_report(matrix), tmp_path)
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    lines = [line.split() for line in text.splitlines()]
    for name in ("ranks.csv", "tests.csv", "scores.csv"):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                assert row in lines, (name, row)


def test_full_report_trims_the_default_groups_to_the_matrix():
    full = reference_median_matrix()
    assert full_report(full)["groups"] == [list(g) for g in DEFAULT_GROUPS]
    keep = [full.functions.index(f) for f in ("F2", "F9", "F10")]
    part = MedianMatrix(full.algorithms, ["F2", "F9", "F10"], full.values[:, keep])
    report = full_report(part)
    assert report["groups"] == [["F2"], ["F9", "F10"]]
    assert len(report["group_scores"][0]) == 2
    other = MedianMatrix(["a", "b"], ["G1", "G2"], [[1.0, 2.0], [2.0, 1.0]])
    assert full_report(other)["groups"] == []


def test_metrics_follow_final_stats():
    # cmd_run writes summary.csv in METRICS order, and the audit reads it back
    assert METRICS == tuple(final_stats([1.0, 2.0]))


def test_default_groups_are_the_function_table_categories_in_order():
    def category(fid):
        family = make_instance(fid, 10, 0).family
        return "overlap" if family.startswith("overlap_") else family

    runs = itertools.groupby(FUNCTION_IDS, key=category)
    names, groups = zip(*((name, tuple(ids)) for name, ids in runs))
    assert names == ("separable", "partial_tail", "partial", "overlap", "nonseparable")
    assert groups == DEFAULT_GROUPS


def test_median_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        MedianMatrix(["a", "b"], ["F1"], np.ones((1, 1)))
    with pytest.raises(ValueError):
        MedianMatrix(["a"], ["F1"], np.array([[np.nan]]))
