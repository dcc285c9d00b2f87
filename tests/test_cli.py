import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import lsgo_hybrid
from lsgo_hybrid.benchmarks import from_json, make_instance
from lsgo_hybrid.cli import (
    OUT_DIR_ENV,
    _exact,
    audit_results,
    build_parser,
    main,
    parse_function_list,
)
from lsgo_hybrid.hybrid import HybridConfig, final_stats, run, scaled
from lsgo_hybrid.stats import METRICS, read_results
from lsgo_hybrid.tuning import (
    ParamVector,
    TunerConfig,
    hybrid_config_for,
    load_specialist_params,
)

TINY_RUN = ["run", "--dim", "10", "--runs", "2", "--seed", "3",
            "--budget-scale", "0.002", "--parallel", "1"]
REPORT_FILES = ("ranks.csv", "tests.csv", "scores.csv", "report.json", "report.txt")


def test_parse_function_list_forms():
    assert parse_function_list("F1") == ["F1"]
    assert parse_function_list("F1..F3") == ["F1", "F2", "F3"]
    assert parse_function_list("F1,F4") == ["F1", "F4"]
    assert parse_function_list("F8..F11,F1") == ["F1", "F8", "F9", "F10", "F11"]
    assert parse_function_list("F1,F1,F2") == ["F1", "F2"]


def test_parse_function_list_errors():
    with pytest.raises(ValueError):
        parse_function_list("F16")
    with pytest.raises(ValueError):
        parse_function_list("F3..F1")
    with pytest.raises(ValueError):
        parse_function_list("")
    with pytest.raises(ValueError):
        parse_function_list("F0..F99")


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(TINY_RUN + ["--functions", "F2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.endswith("audit: ok\n")

    rows = _read(out / "runs.csv")
    header = rows[0]
    assert header[:3] == ["function_id", "dim", "seed"]
    assert header[-3:] == ["final_best", "wall_ms", "config_hash"]
    fe_cols = [c for c in header if c.startswith("fe_")]
    assert fe_cols[-1] == "fe_final"
    assert len(rows) == 3  # header + 2 runs
    assert [r[0] for r in rows[1:]] == ["F2", "F2"]
    assert [r[2] for r in rows[1:]] == ["0", "1"]
    hashes = {r[-1] for r in rows[1:]}
    assert len(hashes) == 1
    assert len(hashes.pop()) == 12

    # one row per metric, named by the config hash, which covers the run count
    summary = _read(out / "summary.csv")
    assert summary[0] == ["algorithm", "metric", "F2"]
    assert len(summary) == 1 + len(METRICS)
    assert [r[1] for r in summary[1:]] == list(METRICS)
    assert {r[0] for r in summary[1:]} == {rows[1][-1]}


def test_run_is_deterministic_apart_from_wall_time(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(TINY_RUN + ["--functions", "F1", "--out", str(out)]) == 0
        rows = _read(out / "runs.csv")
        wall = rows[0].index("wall_ms")
        outs.append([
            [c for k, c in enumerate(row) if k != wall] for row in rows
        ])
    assert outs[0] == outs[1]


def test_run_parallel_matches_serial(tmp_path):
    # --parallel 0 takes one worker per usable CPU
    stripped = []
    for name, workers in (("ser", "1"), ("par", "2"), ("all", "0")):
        out = tmp_path / name
        args = [a for a in TINY_RUN]
        args[args.index("--parallel") + 1] = workers
        assert main(args + ["--functions", "F1", "--out", str(out)]) == 0
        rows = _read(out / "runs.csv")
        wall = rows[0].index("wall_ms")
        stripped.append([
            [c for k, c in enumerate(row) if k != wall] for row in rows
        ])
    assert stripped[0] == stripped[1] == stripped[2]


def test_run_rows_sorted_by_function_then_seed(tmp_path):
    out = tmp_path / "multi"
    assert main(TINY_RUN + ["--functions", "F2,F1", "--out", str(out)]) == 0
    rows = _read(out / "runs.csv")[1:]
    assert [(r[0], r[2]) for r in rows] == [
        ("F1", "0"), ("F1", "1"), ("F2", "0"), ("F2", "1"),
    ]


def test_run_takes_the_functions_in_id_order(tmp_path, capsys):
    # one experiment has one config hash however its functions were typed,
    # so stats refuses its second summary as a duplicate algorithm
    stripped = []
    for name, functions in (("a", "F1,F4"), ("b", "F4,F1")):
        out = tmp_path / name
        assert main(TINY_RUN + ["--functions", functions, "--out", str(out)]) == 0
        rows = _read(out / "runs.csv")
        wall = rows[0].index("wall_ms")
        stripped.append([[c for k, c in enumerate(row) if k != wall] for row in rows])
    assert stripped[0] == stripped[1]
    paths = [str(tmp_path / name / "summary.csv") for name in "ab"]
    assert main(["stats", "--input", *paths, "--out", str(tmp_path / "o")]) == 1
    assert "duplicate algorithm" in capsys.readouterr().err


def test_run_writes_each_checkpoint_from_the_trace(tmp_path):
    # the cell of checkpoint k is trace[2k], the best after cycle k, of the
    # same function, seed and run
    out = tmp_path / "trace"
    assert main(TINY_RUN + ["--functions", "F1,F4", "--checkpoints", "1,4,100",
                            "--out", str(out)]) == 0
    rows = _read(out / "runs.csv")
    fe_cols = [j for j, c in enumerate(rows[0]) if c.startswith("fe_")]
    assert [rows[0][j] for j in fe_cols] == ["fe_220", "fe_880", "fe_final"]
    base = scaled(HybridConfig(checkpoints=(1, 4, 100), seed=3), 0.002)
    for row in rows[1:]:
        config = hybrid_config_for(load_specialist_params(row[0]), base)
        trace = run(make_instance(row[0], 10, 3), config, int(row[2])).trace
        assert [row[j] for j in fe_cols] == [_exact(trace[2 * k]) for k in (1, 4, 100)]


def test_run_custom_checkpoints_and_validation(tmp_path, capsys):
    out = tmp_path / "cp"
    assert main(TINY_RUN + ["--functions", "F1", "--checkpoints", "2,7",
                            "--out", str(out)]) == 0
    header = _read(out / "runs.csv")[0]
    fe_cols = [c for c in header if c.startswith("fe_")]
    assert len(fe_cols) == 2

    code = main(TINY_RUN + ["--functions", "F1", "--checkpoints", "150",
                            "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1,,2", "2,x"])
def test_run_rejects_malformed_checkpoints_naming_the_option(tmp_path, capsys, value):
    out = tmp_path / "cps"
    assert main(TINY_RUN + ["--functions", "F1", "--checkpoints", value,
                            "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --checkpoints")
    assert not (out / "runs.csv").exists()


def test_run_rejects_a_negative_parallel_before_writing(tmp_path, capsys):
    out = tmp_path / "neg"
    args = TINY_RUN + ["--functions", "F1", "--out", str(out)]
    args[args.index("--parallel") + 1] = "-3"
    assert main(args) == 1
    assert "error: --parallel" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--runs", "0", "--runs must be at least 1, got 0"),
    ("--dim", "5", "dimension must be at least 10, got 5"),
    ("--dim", str(10**30), f"dimension {10**30} does not fit a 64-bit index"),
], ids=["runs-0", "dim-5", "dim-1e30"])
def test_run_rejects_a_bad_count_before_touching_runs_csv(tmp_path, capsys, flag,
                                                           value, message):
    out = tmp_path / "exp"
    out.mkdir()
    earlier = b"function_id,dim,seed\r\nF1,10,0\r\n"
    (out / "runs.csv").write_bytes(earlier)
    for target in (out, tmp_path / "fresh"):
        args = TINY_RUN + ["--functions", "F4", "--out", str(target)]
        args[args.index(flag) + 1] = value
        assert main(args) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert (out / "runs.csv").read_bytes() == earlier
    assert not (tmp_path / "fresh").exists()


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    tune = parser.parse_args(["tune", "--function", "F1"])
    tuner = lsgo_hybrid.TunerConfig()
    assert (tune.generations, tune.ga_population, tune.probes,
            tune.inner_budget) == (tuner.ga_generations, tuner.ga_population,
                                   tuner.probes_per_eval, tuner.inner_budget)
    run = parser.parse_args(["run", "--functions", "F1"])
    checkpoints = tuple(int(c) for c in run.checkpoints.split(","))
    assert checkpoints == lsgo_hybrid.HybridConfig().checkpoints
    assert run.parallel == 1


@pytest.mark.parametrize("source", ["mystery", "explicit:0.5,0.8,0.6"])
def test_run_rejects_bad_params_source(tmp_path, capsys, source):
    code = main(TINY_RUN + ["--functions", "F1", "--params", source,
                            "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: unknown --params source {source!r}; "
        "use table2b or tuned:FILE (a JSON object with par, cr and f)\n")


def test_stats_bundled_table_scores_imhs_first(tmp_path):
    out = tmp_path / "stats"
    assert main(["stats", "--out", str(out)]) == 0
    rows = _read(out / "scores.csv")
    assert rows[0][:3] == ["algorithm", "S1", "R1"]
    imhs = next(r for r in rows if r[0] == "IMHS+MDE")
    assert imhs[1] == "1"


def test_stats_writes_every_table(tmp_path):
    out = tmp_path / "statsall"
    assert main(["stats", "--out", str(out)]) == 0
    for name in REPORT_FILES:
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["algorithms"]) == 11


def test_stats_accepts_median_matrix_csv(tmp_path):
    src = tmp_path / "medians.csv"
    src.write_text(
        "algorithm,F1,F2,F3\n"
        "alpha,1.0,5.0,2.0\n"
        "beta,2.0,4.0,9.0\n"
        "gamma,3.0,3.0,1.0\n"
    )
    out = tmp_path / "statsin"
    assert main(["stats", "--input", str(src), "--out", str(out)]) == 0
    rows = _read(out / "ranks.csv")
    assert rows[1][:2] == ["alpha", "1"]


def test_stats_accepts_metric_style_csv(tmp_path):
    src = tmp_path / "table.csv"
    src.write_text(
        "algorithm,metric,F1,F2\n"
        "alpha,best,0.5,0.5\n"
        "alpha,median,1.0,5.0\n"
        "beta,median,2.0,4.0\n"
        "beta,worst,9.0,9.0\n"
    )
    out = tmp_path / "statsmet"
    assert main(["stats", "--input", str(src), "--out", str(out)]) == 0
    rows = _read(out / "ranks.csv")
    assert [r[0] for r in rows[1:]] == ["alpha", "beta"]


def test_stats_schema_violation_names_row_and_column(tmp_path, capsys):
    src = tmp_path / "broken.csv"
    src.write_text(
        "algorithm,F1,F2\n"
        "alpha,1.0,2.0\n"
        "beta,oops,4.0\n"
    )
    code = main(["stats", "--input", str(src), "--out",
                 str(tmp_path / "o1")])
    assert code == 1
    err = capsys.readouterr().err
    assert "row 3" in err and "F1" in err


def test_stats_empty_input_fails(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    assert main(["stats", "--input", str(src), "--out",
                 str(tmp_path / "o2")]) == 1
    assert "empty" in capsys.readouterr().err


def test_stats_without_input_ranks_the_bundled_table(tmp_path):
    bundled = files("lsgo_hybrid.data") / "reference_results.csv"
    assert main(["stats", "--out", str(tmp_path / "default")]) == 0
    assert main(["stats", "--input", str(bundled),
                 "--out", str(tmp_path / "input")]) == 0
    for name in REPORT_FILES:
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "input" / name).read_bytes()), name


def test_stats_has_no_fixture_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--fixture", "paper", "--out", str(tmp_path / "o4")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fixture" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("algorithm,metric,F1,F2\nalpha,median,1.0,5.0\nbeta\n", "row 3, column metric"),
    ("algorithm,F1,F2\nalpha,1.0,nan\nbeta,2.0,4.0\n", "row 2, column F2"),
    ("algorithm,F1,F2\nalpha,1.0,5.0\nbeta,inf,4.0\n", "row 3, column F1"),
    ("algorithm,F1,F1\nalpha,1.0,5.0\nbeta,2.0,4.0\n", "row 1, column 3"),
    ("algorithm,metric,F1\nalpha,median,1.0\nalpha,best,oops\n", "row 3, column F1"),
    ("algorithm,metric,F1,F2\nalpha,best,1.0,5.0\nbeta,best,2.0,4.0\n",
     "no median rows found"),
], ids=["one-field-row", "nan", "inf", "repeated-column", "other-metric", "no-median"])
def test_stats_rejects_malformed_table(tmp_path, capsys, text, where):
    src = tmp_path / "broken.csv"
    src.write_text(text)
    out = tmp_path / "o5"
    assert main(["stats", "--input", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: {where}")
    assert not (out / "report.json").exists()


def test_tune_deterministic_output(tmp_path):
    args = ["tune", "--function", "F5", "--dim", "10", "--probes", "1",
            "--generations", "0", "--ga-population", "3",
            "--inner-budget", "601", "--seed", "3"]
    payloads = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        payloads.append((out / "tuned_F5_D10.json").read_bytes())
    assert payloads[0] == payloads[1]
    data = json.loads(payloads[0])
    assert 0.0 <= data["par"] <= 1.0
    assert 0.0 <= data["cr"] <= 1.0
    assert 0.0 <= data["f"] <= 2.0
    tuner_fields = {f.name for f in fields(TunerConfig)}
    assert set(data) == ({"function_id", "dimension", "probe_fitness"}
                         | {f.name for f in fields(ParamVector)} | tuner_fields)
    assert TunerConfig(**{k: data[k] for k in tuner_fields}) == TunerConfig(
        ga_population=3, ga_generations=0, inner_budget=601, probes_per_eval=1,
        seed=3)


def test_tuned_params_feed_back_into_run(tmp_path):
    tune_out = tmp_path / "tuned"
    assert main(["tune", "--function", "F1", "--dim", "10", "--probes", "1",
                 "--generations", "0", "--ga-population", "3",
                 "--inner-budget", "601", "--seed", "1",
                 "--out", str(tune_out)]) == 0
    tuned_file = tune_out / "tuned_F1_D10.json"
    out = tmp_path / "rerun"
    assert main(TINY_RUN + ["--functions", "F1", "--params",
                            f"tuned:{tuned_file}", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()


def test_run_rejects_tuned_file_for_another_function_or_dimension(tmp_path, capsys):
    tuned = tmp_path / "tuned_F5_D10.json"
    tuned.write_text(json.dumps({"function_id": "F5", "dimension": 10,
                                 "par": 0.3, "cr": 0.9, "f": 0.5}))
    out = tmp_path / "x"
    code = main(TINY_RUN + ["--functions", "F1,F5", "--params",
                            f"tuned:{tuned}", "--out", str(out)])
    assert code == 1
    assert "function_id 'F5', but the run uses function_id 'F1'" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()
    code = main(TINY_RUN[:1] + ["--dim", "20"] + TINY_RUN[3:] + [
        "--functions", "F5", "--params", f"tuned:{tuned}", "--out", str(out)])
    assert code == 1
    assert "dimension 10, but the run uses dimension 20" in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    ("[0.3, 0.9, 0.5]", "must hold a JSON object, not a list"),
    ('{"par": 0.3, "f": 0.5}', "no cr field"),
    ('{"par": 0.3, "cr": "high", "f": 0.5}', "non-numeric cr 'high'"),
    ('{"par": 0.3, "cr": true, "f": 0.5}', "non-numeric cr True"),
    ('{"par": 0.3,', "is not valid JSON"),
], ids=["array", "missing-key", "non-numeric", "boolean", "not-json"])
def test_run_rejects_malformed_tuned_file(tmp_path, capsys, text, field):
    tuned = tmp_path / "tuned.json"
    tuned.write_text(text)
    code = main(TINY_RUN + ["--functions", "F1", "--params", f"tuned:{tuned}",
                            "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: tuned file {tuned} ")
    assert field in err


@pytest.mark.parametrize("text, message", [
    ('{"par": 1.2, "cr": 0.5, "f": 0.5}', "has par=1.2 outside [0.0, 1.0]"),
    ('{"par": 0.5, "cr": 1.5, "f": 0.5}', "has cr=1.5 outside [0.0, 1.0]"),
    ('{"par": 0.5, "cr": 0.5, "f": -1}', "has f=-1.0 outside [0.0, 2.0]"),
], ids=["tuned-out-of-range", "tuned-cr-out-of-range", "tuned-negative-f"])
def test_run_names_the_source_of_a_refused_params_value(tmp_path, capsys, text,
                                                         message):
    tuned = tmp_path / "tuned.json"
    tuned.write_text(text)
    out = tmp_path / "exp"
    out.mkdir()
    earlier = b"function_id,dim,seed\r\nF1,10,0\r\n"
    (out / "runs.csv").write_bytes(earlier)
    assert main(TINY_RUN + ["--functions", "F1", "--params", f"tuned:{tuned}",
                            "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: tuned file {tuned} {message}\n"
    assert (out / "runs.csv").read_bytes() == earlier


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_run_rejects_non_finite_budget_scale(tmp_path, capsys, scale):
    argv = TINY_RUN + ["--functions", "F1", "--out", str(tmp_path / "x")]
    argv[argv.index("--budget-scale") + 1] = scale
    assert main(argv) == 1
    assert "budget_scale must be positive and finite" in capsys.readouterr().err


def test_run_rejects_a_budget_scale_that_overflows(tmp_path, capsys):
    argv = TINY_RUN + ["--functions", "F1", "--out", str(tmp_path / "x")]
    argv[argv.index("--budget-scale") + 1] = "1e308"
    assert main(argv) == 1
    assert "budget_scale 1e+308 overflows" in capsys.readouterr().err


def _run_hash(tmp_path, name, params):
    out = tmp_path / name
    assert main(TINY_RUN + ["--functions", "F1", "--params", params,
                            "--out", str(out)]) == 0
    return _read(out / "runs.csv")[1][-1]


def _tuned(tmp_path, name, cr):
    path = tmp_path / name
    path.write_text(json.dumps({"function_id": "F1", "dimension": 10,
                                "par": 0.3, "cr": cr, "f": 0.5}))
    return f"tuned:{path}"


def test_config_hash_follows_tuned_file_values(tmp_path):
    # the same path with an edited cr must not keep the old hash
    first = _run_hash(tmp_path, "a", _tuned(tmp_path, "p.json", 0.9))
    second = _run_hash(tmp_path, "b", _tuned(tmp_path, "p.json", 0.8))
    assert first != second


def test_config_hash_ignores_how_the_values_were_given(tmp_path):
    # the hash is of the resolved triple: a hand-written file and a tune-style
    # file with its provenance and GA fields give one hash
    by_hand = tmp_path / "hand.json"
    by_hand.write_text('{"par": 0.3, "cr": 0.9, "f": 0.5}')
    tuned = tmp_path / "tuned_F1_D10.json"
    tuned.write_text(json.dumps({
        "function_id": "F1", "dimension": 10, "par": 0.3, "cr": 0.9, "f": 0.5,
        "probe_fitness": 12.5, "ga_population": 3, "ga_generations": 0,
        "inner_budget": 601, "probes_per_eval": 1, "seed": 7}))
    assert (_run_hash(tmp_path, "h", f"tuned:{by_hand}")
            == _run_hash(tmp_path, "t", f"tuned:{tuned}"))


def test_pyproject_version_matches_package():
    # the package's __version__ is the one version string: pyproject.toml
    # names it and holds no literal version of its own
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    assert re.search(r'^dynamic = \["version"\]$', text, flags=re.MULTILINE)
    m = re.search(r'^\[tool\.setuptools\.dynamic\]\nversion = \{attr = "([^"]+)"\}$',
                  text, flags=re.MULTILINE)
    assert m is not None
    assert m.group(1) == "lsgo_hybrid.__version__"
    assert re.search(r'^version = "', text, flags=re.MULTILINE) is None


def _with_closed_stdout(args, unbuffered):
    """Run the console entry point with the read end of its stdout pipe
    closed before it starts, so its first write to stdout fails."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(lsgo_hybrid.__file__).resolve().parents[1]),
         os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "lsgo_hybrid", *args], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stats_with_a_closed_stdout_writes_every_file_and_succeeds(tmp_path, unbuffered):
    proc = _with_closed_stdout(["stats", "--out", str(tmp_path / "closed")], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["stats", "--out", str(tmp_path / "open")]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_run_with_a_closed_stdout_finishes_every_function_and_succeeds(tmp_path,
                                                                     unbuffered):
    # a progress line follows each function, so an unbuffered stdout fails
    # before the second function runs
    args = TINY_RUN + ["--functions", "F1,F2"]
    proc = _with_closed_stdout(args + ["--out", str(tmp_path / "closed")], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(args + ["--out", str(tmp_path / "open")]) == 0
    closed, opened = (_read(tmp_path / name / "runs.csv") for name in ("closed", "open"))
    wall = closed[0].index("wall_ms")
    assert [row[:wall] for row in closed] == [row[:wall] for row in opened]
    assert ((tmp_path / "closed" / "summary.csv").read_bytes()
            == (tmp_path / "open" / "summary.csv").read_bytes())


def test_bench_info_round_trip(tmp_path):
    out = tmp_path / "info"
    assert main(["bench-info", "--function", "F8", "--dim", "30",
                 "--seed", "17", "--out", str(out)]) == 0
    clone = from_json((out / "F8_D30_seed17.json").read_text())
    original = make_instance("F8", 30, 17)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(-100, 100, size=30)
        assert clone.evaluate(x) == original.evaluate(x)


def test_bench_info_f15_single_subcomponent(tmp_path):
    out = tmp_path / "info15"
    assert main(["bench-info", "--function", "F15", "--dim", "40",
                 "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "F15_D40_seed2.json").read_text())
    assert (payload["layout"], payload["tail"]) == ([[0, 40]], None)


def test_bench_info_unknown_function(tmp_path, capsys):
    assert main(["bench-info", "--function", "F16", "--dim", "40",
                 "--seed", "2", "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["run", "--functions", "F4", "--dim", str(10**30), "--runs", "1"],
    # 8e18 bytes of permutation: no overcommit policy grants that allocation
    ["bench-info", "--function", "F15", "--dim", str(10**18)],
], ids=["run-1e30", "bench-info-1e18"])
def test_an_unbuildable_dimension_fails_with_one_error_line(tmp_path, capsys, args):
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert args[args.index("--dim") + 1] in err


def test_audit_matches_exactly_and_catches_a_changed_summary(tmp_path):
    out = tmp_path / "exp"
    # five runs per function give a mean and a stddev of five rounded inputs
    assert main(["run", "--dim", "10", "--runs", "5", "--seed", "3",
                 "--budget-scale", "0.002", "--parallel", "1",
                 "--functions", "F1,F2,F3", "--out", str(out)]) == 0
    runs = _read(out / "runs.csv")
    finals = [float(r[runs[0].index("final_best")]) for r in runs[1:]]
    assert all(float(f"{v:.16e}") == v for v in finals)

    summary = _read(out / "summary.csv")
    row = next(r for r in summary if r[1] == "stddev")
    mantissa, exponent = row[2].split("e")
    row[2] = f"{float(mantissa) + 1e-8:.8f}e{exponent}"
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(summary)
    with pytest.raises(ValueError, match="F1 stddev"):
        audit_results(out / "runs.csv", out / "summary.csv", 5)


def test_audit_refuses_a_rise_of_any_size(tmp_path):
    # every row's series rises from 1e-310 to 2e-310, and the summary is
    # recomputed to match, so only the monotone check can refuse the pair
    out = tmp_path / "exp"
    assert main(TINY_RUN + ["--functions", "F1", "--out", str(out)]) == 0
    runs = _read(out / "runs.csv")
    first = next(k for k, c in enumerate(runs[0]) if c.startswith("fe_"))
    final = runs[0].index("final_best")
    for row in runs[1:]:
        row[first:final + 1] = [_exact(1e-310)] * (final - first) + [_exact(2e-310)]
    stats = final_stats([2e-310, 2e-310])
    summary = _read(out / "summary.csv")
    for row in summary[1:]:
        row[2] = f"{stats[row[1]]:.8e}"
    for name, rows in (("runs.csv", runs), ("summary.csv", summary)):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match=r"checkpoint values increase in .* line 2$"):
        audit_results(out / "runs.csv", out / "summary.csv", 2)


@pytest.mark.parametrize("column, value", [("config_hash", "000000000000"), ("dim", "11")])
def test_audit_refuses_a_row_of_another_experiment(tmp_path, column, value):
    # the summary still matches, so only the row's own columns can refuse it
    out = tmp_path / "exp"
    assert main(TINY_RUN + ["--functions", "F1,F4", "--out", str(out)]) == 0
    runs = _read(out / "runs.csv")
    runs[-1][runs[0].index(column)] = value
    with open(out / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(runs)
    with pytest.raises(ValueError, match=rf"{column} {value} in .* line 5 is not line 2's"):
        audit_results(out / "runs.csv", out / "summary.csv", 2)


def test_audit_refuses_a_runs_file_of_only_its_header(tmp_path):
    out = tmp_path / "exp"
    assert main(TINY_RUN + ["--functions", "F1", "--out", str(out)]) == 0
    header = _read(out / "runs.csv")[:1]
    with open(out / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(header)
    with pytest.raises(ValueError, match="^audit: runs file has no rows$"):
        audit_results(out / "runs.csv", out / "summary.csv", 2)


@pytest.mark.parametrize("edit, runs, message", [
    (lambda rows: [r[:-1] for r in rows], 2, "over the functions ['F1', 'F4']"),
    (lambda rows: rows[:-1], 2, "must hold the rows"),
    (lambda rows: [rows[0]] + [["other", *r[1:]] for r in rows[1:]], 2,
     "must hold the rows"),
    (lambda rows: rows, 3, "F1 has 2 runs, not 3"),
], ids=["missing-function", "missing-metric", "other-algorithm", "run-count"])
def test_audit_refuses_a_summary_of_another_shape(tmp_path, edit, runs, message):
    out = tmp_path / "exp"
    assert main(TINY_RUN + ["--functions", "F1,F4", "--out", str(out)]) == 0
    audit_results(out / "runs.csv", out / "summary.csv", 2)
    summary = edit(_read(out / "summary.csv"))
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(summary)
    with pytest.raises(ValueError, match=re.escape(message)):
        audit_results(out / "runs.csv", out / "summary.csv", runs)


def _summary(tmp_path, name, functions, params="table2b"):
    out = tmp_path / name
    assert main(TINY_RUN + ["--functions", functions, "--params", params,
                            "--out", str(out)]) == 0
    return str(out / "summary.csv")


def test_stats_ranks_the_summaries_of_several_runs(tmp_path, monkeypatch):
    tuned = tmp_path / "tuned.json"
    tuned.write_text('{"par": 0.2, "cr": 0.5, "f": 0.7}')
    paths = [_summary(tmp_path, "a", "F1,F4"),
             _summary(tmp_path, "b", "F1,F4", f"tuned:{tuned}")]
    ranked = []
    real_full_report = lsgo_hybrid.cli.full_report
    monkeypatch.setattr(lsgo_hybrid.cli, "full_report",
                        lambda matrix: ranked.append(matrix) or real_full_report(matrix))
    assert main(["stats", "--input", *paths, "--out", str(tmp_path / "o")]) == 0
    (matrix,) = ranked
    medians = [read_results(Path(p).read_text(encoding="utf-8"), p)["median"]
               for p in paths]
    assert matrix.algorithms == [m.algorithms[0] for m in medians]
    assert len(set(matrix.algorithms)) == 2
    assert matrix.functions == ["F1", "F4"]
    assert matrix.values.tolist() == [m.values[0].tolist() for m in medians]
    assert len(_read(tmp_path / "o" / "ranks.csv")) == 3


@pytest.mark.parametrize("second, message", [
    (None, "row 7, column algorithm: duplicate algorithm"),
    ("F1", "the headers differ"),
], ids=["same-file-twice", "other-functions"])
def test_stats_refuses_summaries_that_do_not_join(tmp_path, capsys, second, message):
    first = _summary(tmp_path, "a", "F1,F4")
    paths = [first, _summary(tmp_path, "b", second) if second else first]
    out = tmp_path / "o"
    assert main(["stats", "--input", *paths, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {paths[0]} + {paths[1]}: {message}")
    assert not (out / "report.json").exists()


def test_runs_csv_keeps_finished_functions_when_a_later_one_fails(tmp_path, monkeypatch):
    real_run_batch = lsgo_hybrid.cli.run_batch
    out = tmp_path / "exp"
    on_disk = []

    def failing_second(spec, *args, **kwargs):
        # what a process killed at this moment would leave behind
        on_disk.append(_read(out / "runs.csv"))
        if len(on_disk) == 2:
            raise RuntimeError("worker lost")
        return real_run_batch(spec, *args, **kwargs)

    monkeypatch.setattr(lsgo_hybrid.cli, "run_batch", failing_second)
    assert main(TINY_RUN + ["--functions", "F1,F2", "--out", str(out)]) == 1
    before_first, before_second = on_disk
    assert len(before_first) == 1 and before_first[0][:3] == ["function_id", "dim", "seed"]
    assert [(r[0], r[2]) for r in before_second[1:]] == [("F1", "0"), ("F1", "1")]
    assert _read(out / "runs.csv") == before_second


def test_out_dir_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv(OUT_DIR_ENV, str(target))
    assert main(["stats"]) == 0
    assert (target / "ranks.csv").exists()
