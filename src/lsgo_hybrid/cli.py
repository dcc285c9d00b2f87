"""Command-line harness: run experiments, rank results, tune, inspect.

Subcommands:
  run         seeded batches of hybrid runs, audited CSV results + summary
  stats       ranking pipeline over a median matrix (files or bundled)
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
from .stats.fixture import METRICS, read_results, reference_median_matrix
from .stats.report import format_text, full_report, write_report
from .tuning import (
    ParamVector,
    TunerConfig,
    hybrid_config_for,
    load_specialist_params,
    read_param_vector,
    tune,
)

OUT_DIR_ENV = "LSGO_HYBRID_OUT"
_DEFAULT_OUT = "lsgo_hybrid_out"


def _say(text: str) -> None:
    """Print a line to stdout. Once stdout's reader has gone, fd 1 points at
    devnull (the idiom of Python's signal docs): the command goes on to write
    and audit its files, quietly, and no flush at exit fails."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(OUT_DIR_ENV) or _DEFAULT_OUT)
    path.mkdir(parents=True, exist_ok=True)
    return path


def parse_function_list(text: str) -> list[str]:
    """Comma-separated ids with F<a>..F<b> range syntax, e.g. F1..F3,F15; each
    chosen id once, in FUNCTION_IDS order however it was typed."""
    chosen: set[str] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = re.fullmatch(r"(F\d+)\.\.(F\d+)", token)
        if m:
            lo, hi = m.group(1), m.group(2)
            if lo not in FUNCTION_IDS or hi not in FUNCTION_IDS:
                raise ValueError(f"unknown function in range {token!r}")
            span = FUNCTION_IDS[FUNCTION_IDS.index(lo):FUNCTION_IDS.index(hi) + 1]
            if not span:
                raise ValueError(f"empty range {token!r}")
            chosen.update(span)
        elif token in FUNCTION_IDS:
            chosen.add(token)
        else:
            raise ValueError(
                f"unknown function id {token!r}; expected F1..F{len(FUNCTION_IDS)}"
            )
    if not chosen:
        raise ValueError("no functions selected")
    return [f for f in FUNCTION_IDS if f in chosen]


def _resolve_params(source: str, function_id: str, dimension: int) -> ParamVector:
    if source == "table2b":
        return load_specialist_params(function_id)
    if source.startswith("tuned:"):
        path = source[len("tuned:"):]
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"tuned file {path} is not valid JSON: {exc}") from None
        params = read_param_vector(payload, f"tuned file {path}")
        for key, value in (("function_id", function_id), ("dimension", dimension)):
            if key in payload and payload[key] != value:
                raise ValueError(
                    f"tuned file {path} has {key} {payload[key]!r}, "
                    f"but the run uses {key} {value!r}"
                )
        return params
    raise ValueError(
        f"unknown --params source {source!r}; "
        "use table2b or tuned:FILE (a JSON object with par, cr and f)"
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
    if args.parallel < 0:
        raise ValueError("--parallel must be 0 (all CPUs) or a worker count, "
                         f"got {args.parallel}")
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    functions = parse_function_list(args.functions)
    try:
        checkpoints = tuple(int(c) for c in args.checkpoints.split(","))
    except ValueError:
        raise ValueError("--checkpoints must be comma-separated integers, "
                         f"got {args.checkpoints!r}") from None

    base = scaled(HybridConfig(checkpoints=checkpoints, seed=args.seed),
                  args.budget_scale)
    base.validate()
    budget = fe_budget(base)

    # resolve every function's parameters before the first run, so a bad
    # source fails at once rather than after hours of finished runs
    configs = {fid: hybrid_config_for(_resolve_params(args.params, fid, args.dim), base)
               for fid in functions}
    # likewise build every instance: make_instance refuses a dimension its
    # layout cannot take, and only then is --out created and runs.csv opened
    instances = {fid: make_instance(fid, args.dim, args.seed) for fid in functions}
    out = _out_dir(args)
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

    fe_columns = [_fe_label(k * base.per_cycle, budget) for k in checkpoints]

    runs_path = out / "runs.csv"
    header = ["function_id", "dim", "seed", *fe_columns,
              "final_best", "wall_ms", "config_hash"]
    summaries = {}
    workers = args.parallel if args.parallel else _usable_cpus()
    # each function's rows reach the file as soon as its batch ends, so an
    # interrupted or failed command keeps every function it finished
    with open(runs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        fh.flush()
        for fid in functions:
            results, summary = run_batch(instances[fid], configs[fid],
                                         n_runs=args.runs, workers=workers)
            summaries[fid] = summary
            for r in results:
                row = [fid, args.dim, r.seed]
                # trace[2k] is the best after cycle k, k * per_cycle evaluations
                row += [_exact(r.trace[2 * k]) for k in checkpoints]
                row += [_exact(r.final_best.fitness),
                        int(round(r.wall_time_s * 1000.0)), config_hash]
                writer.writerow(row)
            fh.flush()
            _say(f"{fid}: {args.runs} runs done, median {_sci(summary['median'])}")

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["algorithm", "metric", *summaries]] + [
            [config_hash, m, *(_sci(s[m]) for s in summaries.values())] for m in METRICS])

    _say(f"wrote {runs_path} and {summary_path}")
    audit_results(runs_path, summary_path, args.runs)
    _say("audit: ok")
    return 0


def audit_results(runs_path: Path, summary_path: Path, n_runs: int):
    """Recompute every summary cell from the per-run rows; raise on mismatch.

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
        for key in ("config_hash", "dim"):
            if row[key] != rows[0][key]:
                raise ValueError(f"audit: {key} {row[key]} in {runs_path} line {i} "
                                 f"is not line 2's {rows[0][key]}")
        series = [float(row[c]) for c in fe_cols] + [float(row["final_best"])]
        if any(b > a for a, b in zip(series, series[1:])):
            raise ValueError(
                f"audit: checkpoint values increase in {runs_path} line {i}"
            )
        finals.setdefault(row["function_id"], []).append(float(row["final_best"]))

    with open(summary_path, newline="", encoding="utf-8") as fh:
        tables = read_results(fh.read(), f"audit: {summary_path}")
    shape = ([rows[0]["config_hash"]], list(finals))
    if (tuple(tables) != METRICS
            or any((t.algorithms, t.functions) != shape for t in tables.values())):
        raise ValueError(f"audit: {summary_path} must hold the rows {METRICS} of "
                         f"algorithm {shape[0][0]} over the functions {shape[1]}")
    for j, (fid, values) in enumerate(finals.items()):
        if len(values) != n_runs:
            raise ValueError(f"audit: {fid} has {len(values)} runs, not {n_runs}")
        for key, value in final_stats(values).items():
            if _sci(value) != _sci(stored := tables[key].values[0, j]):
                raise ValueError(f"audit: {fid} {key}: recomputed {_sci(value)} "
                                 f"!= stored {_sci(stored)}")


def cmd_stats(args) -> int:
    if args.input is None:
        matrix = reference_median_matrix()
    else:
        heads, bodies = zip(*(Path(path).read_text(encoding="utf-8").partition("\n")[::2]
                              for path in args.input))
        source = " + ".join(args.input)
        if len(set(heads)) > 1:
            raise ValueError(f"{source}: the headers differ: {heads}")
        matrix = read_results("\n".join([heads[0], *bodies]), source).get("median")
        if matrix is None:
            raise ValueError(f"{source}: no median rows found")

    report = full_report(matrix)
    out = _out_dir(args)
    write_report(report, out)
    _say(format_text(report) + f"wrote report files to {out}")
    return 0


def cmd_tune(args) -> int:
    instance = make_instance(args.function, args.dim, args.seed)
    config = TunerConfig(
        ga_population=args.ga_population,
        ga_generations=args.generations,
        inner_budget=args.inner_budget,
        probes_per_eval=args.probes,
        seed=args.seed,
    )
    vector, fitness = tune(instance, config)
    out = _out_dir(args)
    path = out / f"tuned_{args.function}_D{args.dim}.json"
    payload = {"function_id": args.function, "dimension": args.dim,
               **asdict(vector), "probe_fitness": fitness, **asdict(config)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _say(f"{args.function}: par={vector.par:.4f} cr={vector.cr:.4f} "
         f"f={vector.f:.4f} probe_fitness={_sci(fitness)}")
    _say(f"wrote {path}")
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
    _say(f"{args.function} D={args.dim} seed={args.seed}: "
         f"bounds [{lo}, {hi}], {len(sizes)} subcomponent(s) {sizes}")
    _say(f"wrote {path}")
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
                       help="table2b | tuned:FILE")
    p_run.add_argument("--checkpoints",
                       default=",".join(map(str, HybridConfig().checkpoints)),
                       help="outer-cycle indices to record, comma separated")
    p_run.add_argument("--parallel", type=int, default=1,
                       help="worker processes (default 1; 0: one per CPU this "
                            "process may use)")
    p_run.add_argument("--out")
    p_run.set_defaults(handler=cmd_run)

    p_stats = sub.add_parser("stats", help="ranking and omnibus tests")
    p_stats.add_argument("--input", nargs="+",
                         help="results tables ranked as one (default: the bundled table)")
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
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
