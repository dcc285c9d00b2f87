"""Command-line harness: run experiments, rank results, tune, inspect.

Subcommands:
  run         seeded batches of hybrid runs, CSV results + summary
  stats       ranking pipeline over a median matrix (file or bundled)
  tune        GA parameter tuning for one function, JSON output
  bench-info  write a benchmark instance descriptor

Output directory resolution: --out flag, else the LSGO_HYBRID_OUT
environment variable, else ./lsgo_hybrid_out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .benchmarks import FUNCTION_IDS, make_instance
from .hybrid import HybridConfig, fe_budget, final_stats, run_batch, scaled
from .stats.fixture import FUNCTION_LABELS, reference_median_matrix
from .stats.ranking import DEFAULT_GROUPS, MedianMatrix
from .stats.report import (
    format_text,
    full_report,
    write_json,
    write_rank_csv,
    write_scores_csv,
    write_tests_csv,
    write_text,
)
from .tuning import ParamVector, TunerConfig, hybrid_config_for, load_specialist_params, tune

OUT_DIR_ENV = "LSGO_HYBRID_OUT"
_DEFAULT_OUT = "lsgo_hybrid_out"

_FID_NUM = {fid: i for i, fid in enumerate(FUNCTION_IDS)}


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(OUT_DIR_ENV) or _DEFAULT_OUT)
    path.mkdir(parents=True, exist_ok=True)
    return path


def parse_function_list(text: str) -> list[str]:
    """Comma-separated ids with F<a>..F<b> range syntax, e.g. F1..F3,F15."""
    chosen: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = re.fullmatch(r"(F\d+)\.\.(F\d+)", token)
        if m:
            lo, hi = m.group(1), m.group(2)
            if lo not in _FID_NUM or hi not in _FID_NUM:
                raise ValueError(f"unknown function in range {token!r}")
            if _FID_NUM[lo] > _FID_NUM[hi]:
                raise ValueError(f"empty range {token!r}")
            span = FUNCTION_IDS[_FID_NUM[lo]:_FID_NUM[hi] + 1]
            chosen.extend(span)
        elif token in _FID_NUM:
            chosen.append(token)
        else:
            raise ValueError(
                f"unknown function id {token!r}; expected F1..F{len(FUNCTION_IDS)}"
            )
    seen = set()
    unique = [f for f in chosen if not (f in seen or seen.add(f))]
    if not unique:
        raise ValueError("no functions selected")
    return unique


def _resolve_params(source: str, function_id: str, dimension: int) -> ParamVector:
    if source == "table2b":
        return load_specialist_params(function_id)
    if source.startswith("tuned:"):
        path = source[len("tuned:"):]
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        for key, value in (("function_id", function_id), ("dimension", dimension)):
            if key in payload and payload[key] != value:
                raise ValueError(
                    f"tuned file {path} has {key} {payload[key]!r}, "
                    f"but the run uses {key} {value!r}"
                )
        return ParamVector(par=float(payload["par"]), cr=float(payload["cr"]),
                           f=float(payload["f"]))
    if source.startswith("explicit:"):
        parts = source[len("explicit:"):].split(",")
        if len(parts) != 3:
            raise ValueError(
                "explicit parameters must be three comma-separated values: "
                "explicit:PAR,CR,F"
            )
        par, cr, f = (float(p) for p in parts)
        return ParamVector(par=par, cr=cr, f=f)
    raise ValueError(
        f"unknown --params source {source!r}; "
        "use table2b, tuned:FILE, or explicit:PAR,CR,F"
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _fe_label(fe: int, budget: int) -> str:
    if fe == budget:
        return "fe_final"
    if fe % 1000 == 0:
        return f"fe_{fe // 1000}k"
    return f"fe_{fe}"


def _sci(x: float) -> str:
    return f"{x:.8e}"


def _exact(x: float) -> str:
    """Scientific notation with 17 significant digits: reads back as x itself."""
    return f"{x:.16e}"


def cmd_run(args) -> int:
    functions = parse_function_list(args.functions)
    out = _out_dir(args)
    checkpoints = tuple(int(c) for c in args.checkpoints.split(","))

    base = HybridConfig(checkpoints=checkpoints, seed=args.seed)
    if args.budget_scale != 1.0:
        base = scaled(base, args.budget_scale)
    base.validate()
    budget = fe_budget(base)

    # resolve every function's parameters before the first run, so a bad
    # source fails at once rather than after hours of finished runs
    configs = {fid: hybrid_config_for(_resolve_params(args.params, fid, args.dim), base)
               for fid in functions}
    # hash the resolved configs, not the --params text, so editing a tuned
    # file changes the hash and equal values reached two ways share one
    config_hash = _config_hash({
        "version": __version__,
        "functions": functions,
        "dim": args.dim,
        "runs": args.runs,
        "seed": args.seed,
        "configs": {fid: asdict(config) for fid, config in configs.items()},
    })

    checkpoint_fes = [k * base.per_cycle for k in checkpoints]
    fe_columns = [_fe_label(fe, budget) for fe in checkpoint_fes]

    runs_path = out / "runs.csv"
    header = ["function_id", "dim", "seed", *fe_columns,
              "final_best", "wall_ms", "config_hash"]
    summaries = []
    workers = args.parallel if args.parallel else _usable_cpus()
    # each function's rows reach the file as soon as its batch ends, so an
    # interrupted or failed command keeps every function it finished
    with open(runs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        fh.flush()
        for fid in sorted(functions, key=_FID_NUM.get):
            results, summary = run_batch((fid, args.dim, args.seed), configs[fid],
                                         n_runs=args.runs, workers=workers)
            summaries.append(summary)
            for r in results:
                row = [fid, args.dim, r.seed]
                row += [_exact(r.best_at_checkpoint[fe]) for fe in checkpoint_fes]
                row += [_exact(r.final_best.fitness),
                        int(round(r.wall_time_s * 1000.0)), config_hash]
                writer.writerow(row)
            fh.flush()
            print(f"{fid}: {args.runs} runs done, median {_sci(summary.median)}")

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function_id", "dim", "n_runs", "best", "median",
                         "worst", "mean", "stddev", "config_hash"])
        for s in summaries:
            writer.writerow([s.function_id, s.dimension, s.n_runs,
                             _sci(s.best), _sci(s.median), _sci(s.worst),
                             _sci(s.mean), _sci(s.stddev), config_hash])

    print(f"wrote {runs_path} and {summary_path}")
    if args.audit:
        audit_results(runs_path, summary_path)
        print("audit: ok")
    return 0


def audit_results(runs_path: Path, summary_path: Path):
    """Recompute every summary row from its per-run rows; raise on mismatch.

    The per-run values are written exactly and `final_stats` is the
    function that made the summary, so a correct pair of files matches
    digit for digit.
    """
    with open(runs_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("audit: runs file has no rows")
    fe_cols = [c for c in rows[0] if c.startswith("fe_")]

    finals: dict[str, list[float]] = {}
    for i, row in enumerate(rows, start=2):
        series = [float(row[c]) for c in fe_cols] + [float(row["final_best"])]
        if any(b > a + 1e-300 for a, b in zip(series, series[1:])):
            raise ValueError(
                f"audit: checkpoint values increase in {runs_path} line {i}"
            )
        finals.setdefault(row["function_id"], []).append(float(row["final_best"]))

    with open(summary_path, newline="", encoding="utf-8") as fh:
        summary_rows = list(csv.DictReader(fh))
    for row in summary_rows:
        fid = row["function_id"]
        values = finals.get(fid, [])
        if len(values) != int(row["n_runs"]):
            raise ValueError(f"audit: {fid} run count mismatch")
        recomputed = final_stats(values)
        for key, value in recomputed.items():
            if _sci(value) != row[key]:
                raise ValueError(
                    f"audit: {fid} column {key}: recomputed {_sci(value)} "
                    f"!= stored {row[key]}"
                )


def load_median_csv(path: str) -> MedianMatrix:
    """Median matrix from CSV.

    Accepted headers: `algorithm,F1,...` (values are medians) or
    `algorithm,metric,F1,...` (rows filtered to metric == median).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError(f"{path}: empty input")
    header = rows[0]
    if not header or header[0] != "algorithm":
        raise ValueError(f"{path}: row 1: first column must be 'algorithm'")
    has_metric = len(header) > 1 and header[1] == "metric"
    first_fn = 2 if has_metric else 1
    functions = header[first_fn:]
    if not functions:
        raise ValueError(f"{path}: row 1: no function columns")

    algorithms: list[str] = []
    values: list[list[float]] = []
    for i, row in enumerate(rows[1:], start=2):
        if has_metric and row[1].strip().lower() != "median":
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {i}: expected {len(header)} fields, got {len(row)}"
            )
        name = row[0]
        if name in algorithms:
            raise ValueError(f"{path}: row {i}: duplicate algorithm {name!r}")
        parsed = []
        for j, cell in enumerate(row[first_fn:]):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: row {i}, column {functions[j]}: "
                    f"not a number: {cell!r}"
                ) from None
        algorithms.append(name)
        values.append(parsed)
    if not algorithms:
        raise ValueError(f"{path}: no median rows found")
    return MedianMatrix(algorithms, list(functions), values)


def cmd_stats(args) -> int:
    if args.fixture:
        if args.fixture != "paper":
            raise ValueError(f"unknown fixture {args.fixture!r}; only 'paper'")
        matrix = reference_median_matrix()
    elif args.input:
        matrix = load_median_csv(args.input)
    else:
        raise ValueError("provide --input FILE or --fixture paper")

    # Race-style scoring only covers the groups whose functions the input
    # actually provides; a partial matrix simply gets fewer (or no) groups.
    present = set(matrix.functions)
    groups = tuple(
        trimmed for g in DEFAULT_GROUPS
        if (trimmed := tuple(f for f in g if f in present))
    )
    report = full_report(matrix, groups)
    out = _out_dir(args)
    write_json(report, out / "report.json")
    write_text(report, out / "report.txt")
    if args.mode in ("all", "ranks"):
        write_rank_csv(report, out / "ranks.csv")
    if args.mode in ("all", "tests"):
        write_tests_csv(report, out / "tests.csv")
    if args.mode in ("all", "f1"):
        write_scores_csv(report, out / "scores.csv")
    sys.stdout.write(format_text(report))
    print(f"wrote report files to {out}")
    return 0


def cmd_tune(args) -> int:
    instance = make_instance(args.function, args.dim, args.seed)
    config = TunerConfig(
        ga_population=args.ga_population,
        ga_generations=args.generations,
        inner_budget=args.inner_budget,
        probes_per_eval=args.probes,
        seed=args.seed,
        population_size=args.pool,
    )
    vector, fitness = tune(instance, config)
    out = _out_dir(args)
    path = out / f"tuned_{args.function}_D{args.dim}.json"
    payload = {
        "function_id": args.function,
        "dimension": args.dim,
        "par": vector.par,
        "cr": vector.cr,
        "f": vector.f,
        "probe_fitness": fitness,
        "seed": args.seed,
        "ga_population": config.ga_population,
        "ga_generations": config.ga_generations,
        "inner_budget": config.inner_budget,
        "probes_per_eval": config.probes_per_eval,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"{args.function}: par={vector.par:.4f} cr={vector.cr:.4f} "
          f"f={vector.f:.4f} probe_fitness={_sci(fitness)}")
    print(f"wrote {path}")
    return 0


def cmd_bench_info(args) -> int:
    instance = make_instance(args.function, args.dim, args.seed)
    out = _out_dir(args)
    path = out / f"{args.function}_D{args.dim}_seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance.to_json(indent=2))
        fh.write("\n")
    sizes = [sub.size for sub in instance.subcomponents]
    lo, hi = instance.bounds
    print(f"{args.function} D={args.dim} seed={args.seed}: "
          f"bounds [{lo}, {hi}], {len(sizes)} subcomponent(s) {sizes}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsgo-hybrid",
        description="Hybrid harmony/differential-evolution optimizer harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded run batches")
    p_run.add_argument("--functions", required=True,
                       help="e.g. F1 or F1..F15 or F1,F4,F8..F11")
    p_run.add_argument("--dim", type=int, default=1000)
    p_run.add_argument("--runs", type=int, default=25)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--budget-scale", type=float, default=1.0,
                       help="scale both phases' iteration counts")
    p_run.add_argument("--params", default="table2b",
                       help="table2b | tuned:FILE | explicit:PAR,CR,F")
    p_run.add_argument("--checkpoints",
                       default=",".join(map(str, HybridConfig().checkpoints)),
                       help="outer-cycle indices to record, comma separated")
    p_run.add_argument("--parallel", type=int, default=0,
                       help="worker processes (default: all CPUs this process may use)")
    p_run.add_argument("--audit", action="store_true",
                       help="re-derive the summary from the run rows")
    p_run.add_argument("--out")
    p_run.set_defaults(handler=cmd_run)

    p_stats = sub.add_parser("stats", help="ranking and omnibus tests")
    p_stats.add_argument("--input", help="median matrix CSV")
    p_stats.add_argument("--fixture", choices=["paper"],
                         help="use the bundled published-results table")
    p_stats.add_argument("--mode", choices=["all", "ranks", "tests", "f1"],
                         default="all")
    p_stats.add_argument("--out")
    p_stats.set_defaults(handler=cmd_stats)

    p_tune = sub.add_parser("tune", help="GA parameter tuning for one function")
    p_tune.add_argument("--function", required=True)
    p_tune.add_argument("--dim", type=int, default=50)
    p_tune.add_argument("--seed", type=int, default=0)
    tuner = TunerConfig()
    p_tune.add_argument("--generations", type=int, default=tuner.ga_generations)
    p_tune.add_argument("--ga-population", type=int, default=tuner.ga_population)
    p_tune.add_argument("--probes", type=int, default=tuner.probes_per_eval)
    p_tune.add_argument("--inner-budget", type=int, default=tuner.inner_budget)
    p_tune.add_argument("--pool", type=int, default=tuner.population_size,
                        help="pool size of the probed hybrid runs")
    p_tune.add_argument("--out")
    p_tune.set_defaults(handler=cmd_tune)

    p_info = sub.add_parser("bench-info", help="write an instance descriptor")
    p_info.add_argument("--function", required=True)
    p_info.add_argument("--dim", type=int, default=1000)
    p_info.add_argument("--seed", type=int, default=0)
    p_info.add_argument("--out")
    p_info.set_defaults(handler=cmd_bench_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
