import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import lsgo_hybrid
from lsgo_hybrid.benchmarks import from_json, make_instance
from lsgo_hybrid.cli import (
    OUT_DIR_ENV,
    audit_results,
    build_parser,
    main,
    parse_function_list,
)

TINY_RUN = ["run", "--dim", "10", "--runs", "2", "--seed", "3",
            "--budget-scale", "0.002", "--parallel", "1"]


def test_parse_function_list_forms():
    assert parse_function_list("F1") == ["F1"]
    assert parse_function_list("F1..F3") == ["F1", "F2", "F3"]
    assert parse_function_list("F1,F4") == ["F1", "F4"]
    assert parse_function_list("F8..F11,F1") == ["F8", "F9", "F10", "F11", "F1"]
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


def test_run_writes_expected_files(tmp_path):
    out = tmp_path / "exp"
    code = main(TINY_RUN + ["--functions", "F2", "--audit", "--out", str(out)])
    assert code == 0

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

    summary = _read(out / "summary.csv")
    assert summary[0][:3] == ["function_id", "dim", "n_runs"]
    assert len(summary) == 2
    assert summary[1][0] == "F2"
    assert summary[1][2] == "2"


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
    stripped = []
    for name, workers in (("ser", "1"), ("par", "2")):
        out = tmp_path / name
        args = [a for a in TINY_RUN]
        args[args.index("--parallel") + 1] = workers
        assert main(args + ["--functions", "F1", "--out", str(out)]) == 0
        rows = _read(out / "runs.csv")
        wall = rows[0].index("wall_ms")
        stripped.append([
            [c for k, c in enumerate(row) if k != wall] for row in rows
        ])
    assert stripped[0] == stripped[1]


def test_run_rows_sorted_by_function_then_seed(tmp_path):
    out = tmp_path / "multi"
    assert main(TINY_RUN + ["--functions", "F2,F1", "--out", str(out)]) == 0
    rows = _read(out / "runs.csv")[1:]
    assert [(r[0], r[2]) for r in rows] == [
        ("F1", "0"), ("F1", "1"), ("F2", "0"), ("F2", "1"),
    ]


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


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    tune = parser.parse_args(["tune", "--function", "F1"])
    tuner = lsgo_hybrid.TunerConfig()
    assert (tune.generations, tune.ga_population, tune.probes, tune.inner_budget,
            tune.pool) == (tuner.ga_generations, tuner.ga_population,
                           tuner.probes_per_eval, tuner.inner_budget,
                           tuner.population_size)
    assert tuner.population_size == lsgo_hybrid.HybridConfig().population_size
    run = parser.parse_args(["run", "--functions", "F1"])
    checkpoints = tuple(int(c) for c in run.checkpoints.split(","))
    assert checkpoints == lsgo_hybrid.HybridConfig().checkpoints


def test_run_explicit_params(tmp_path):
    out = tmp_path / "explicit"
    assert main(TINY_RUN + ["--functions", "F1", "--params",
                            "explicit:0.5,0.8,0.6", "--out", str(out)]) == 0
    assert (out / "runs.csv").exists()


def test_run_rejects_bad_params_source(tmp_path, capsys):
    code = main(TINY_RUN + ["--functions", "F1", "--params", "mystery",
                            "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown --params source" in capsys.readouterr().err


def test_stats_fixture_f1_mode(tmp_path):
    out = tmp_path / "stats"
    assert main(["stats", "--fixture", "paper", "--mode", "f1",
                 "--out", str(out)]) == 0
    assert (out / "scores.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "report.txt").exists()
    assert not (out / "ranks.csv").exists()
    rows = _read(out / "scores.csv")
    assert rows[0][:3] == ["algorithm", "S1", "R1"]
    imhs = next(r for r in rows if r[0] == "IMHS+MDE")
    assert imhs[1] == "1"


def test_stats_all_mode_writes_every_table(tmp_path):
    out = tmp_path / "statsall"
    assert main(["stats", "--fixture", "paper", "--out", str(out)]) == 0
    for name in ("ranks.csv", "tests.csv", "scores.csv", "report.json",
                 "report.txt"):
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


def test_stats_requires_a_source(tmp_path, capsys):
    assert main(["stats", "--out", str(tmp_path / "o3")]) == 1
    assert "provide" in capsys.readouterr().err


def test_tune_deterministic_output(tmp_path):
    args = ["tune", "--function", "F5", "--dim", "10", "--probes", "1",
            "--generations", "0", "--ga-population", "3",
            "--inner-budget", "60", "--pool", "20", "--seed", "3"]
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


def test_tuned_params_feed_back_into_run(tmp_path):
    tune_out = tmp_path / "tuned"
    assert main(["tune", "--function", "F1", "--dim", "10", "--probes", "1",
                 "--generations", "0", "--ga-population", "3",
                 "--inner-budget", "60", "--pool", "20", "--seed", "1",
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
    tuned = _run_hash(tmp_path, "t", _tuned(tmp_path, "t.json", 0.9))
    explicit = _run_hash(tmp_path, "e", "explicit:0.3,0.9,0.5")
    assert tuned == explicit


def test_pyproject_version_matches_package():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    m = re.search(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert m is not None
    assert m.group(1) == lsgo_hybrid.__version__


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
    assert len(payload["subcomponents"]) == 1


def test_bench_info_unknown_function(tmp_path, capsys):
    assert main(["bench-info", "--function", "F16", "--dim", "40",
                 "--seed", "2", "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_audit_matches_exactly_and_catches_a_changed_summary(tmp_path):
    out = tmp_path / "exp"
    # five runs per function give a mean and a stddev of five rounded inputs
    assert main(["run", "--dim", "10", "--runs", "5", "--seed", "3",
                 "--budget-scale", "0.002", "--parallel", "1",
                 "--functions", "F1,F2,F3", "--audit", "--out", str(out)]) == 0
    runs = _read(out / "runs.csv")
    finals = [float(r[runs[0].index("final_best")]) for r in runs[1:]]
    assert all(float(f"{v:.16e}") == v for v in finals)

    summary = _read(out / "summary.csv")
    column = summary[0].index("stddev")
    mantissa, exponent = summary[1][column].split("e")
    summary[1][column] = f"{float(mantissa) + 1e-8:.8f}e{exponent}"
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(summary)
    with pytest.raises(ValueError, match="stddev"):
        audit_results(out / "runs.csv", out / "summary.csv")


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
    assert main(["stats", "--fixture", "paper", "--mode", "ranks"]) == 0
    assert (target / "ranks.csv").exists()
