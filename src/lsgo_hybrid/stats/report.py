"""Full ranking report over a median matrix, plus its writer.

One call computes everything the comparison workflow needs: per-function
competition ranks, first-place counts, both omnibus tests, and the
race-style group scores. `write_report` emits the CSV tables, a JSON dump
and a plain-text summary.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .nonparametric import friedman, quade
from .ranking import DEFAULT_GROUPS, MedianMatrix, f1_scores, nbest, rank_matrix


def full_report(matrix: MedianMatrix) -> dict:
    """Every table of the comparison pipeline as one plain dict.

    The race-style scores cover `DEFAULT_GROUPS` trimmed to the functions
    the matrix has, leaving out groups with none of them; `f1_scores` takes
    any other grouping.
    """
    present = set(matrix.functions)
    groups = tuple(trimmed for g in DEFAULT_GROUPS
                   if (trimmed := tuple(f for f in g if f in present)))
    comp = rank_matrix(matrix, "competition").astype(int)
    scores, group_ranks = f1_scores(comp, matrix.functions, groups)
    return {
        "algorithms": list(matrix.algorithms),
        "functions": list(matrix.functions),
        "competition_ranks": comp.tolist(),
        "nbest": nbest(comp).tolist(),
        "friedman": friedman(matrix),
        "quade": quade(matrix),
        "groups": [list(g) for g in groups],
        "group_scores": scores.tolist(),
        "group_ranks": group_ranks.tolist(),
    }


def format_text(report: dict) -> str:
    names = report["algorithms"]
    width = max(len(n) for n in names) + 2
    lines = []

    lines.append("Per-function competition ranks (lower is better)")
    head = "".join(f"{f:>5}" for f in report["functions"])
    lines.append(" " * width + head + "  nbest")
    for i, name in enumerate(names):
        row = "".join(f"{r:>5d}" for r in report["competition_ranks"][i])
        lines.append(f"{name:<{width}}" + row + f"  {report['nbest'][i]:>5d}")
    lines.append("")

    fr, qu = report["friedman"], report["quade"]
    lines.append("Omnibus tests over per-function ranks")
    lines.append(
        f"  chi-square test: statistic {fr['statistic']:.4f} "
        f"(uncorrected {fr['statistic_uncorrected']:.4f}), "
        f"dof {fr['dof']}, p-value {fr['p_value']:.4e}"
    )
    lines.append(
        f"  range-weighted F test: statistic {qu['statistic']:.4f}, "
        f"dof ({qu['dof'][0]}, {qu['dof'][1]}), p-value {qu['p_value']:.4e}"
    )
    lines.append(f"{'':<{width}}{'mean rank':>12}{'weighted rank':>16}")
    for i, name in enumerate(names):
        lines.append(
            f"{name:<{width}}{fr['mean_ranks'][i]:>12.4f}"
            f"{qu['weighted_ranks'][i]:>16.4f}"
        )
    lines.append("")

    lines.append("Race-style scores per function group (higher is better)")
    group_desc = ", ".join(
        f"S{g + 1}={'+'.join(fn for fn in grp)}"
        for g, grp in enumerate(report["groups"])
    )
    lines.append("  " + group_desc)
    n_groups = len(report["groups"])
    head = "".join(f"{'S%d' % (g + 1):>6}{'R%d' % (g + 1):>4}"
                   for g in range(n_groups))
    lines.append(" " * width + head)
    for i, name in enumerate(names):
        row = "".join(
            f"{report['group_scores'][i][g]:>6d}{report['group_ranks'][i][g]:>4d}"
            for g in range(n_groups)
        )
        lines.append(f"{name:<{width}}" + row)
    lines.append("")
    return "\n".join(lines)


def write_report(report: dict, out_dir: Path):
    """Write report.json, report.txt, ranks.csv, tests.csv and scores.csv."""
    out_dir = Path(out_dir)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    with open(out_dir / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(format_text(report))

    names = report["algorithms"]
    with open(out_dir / "ranks.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", *report["functions"], "nbest"])
        for i, name in enumerate(names):
            writer.writerow([name, *report["competition_ranks"][i],
                             report["nbest"][i]])

    with open(out_dir / "tests.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "nbest", "friedman_mean_rank",
                         "quade_weighted_rank"])
        fr = report["friedman"]["mean_ranks"]
        qu = report["quade"]["weighted_ranks"]
        for i, name in enumerate(names):
            writer.writerow([name, report["nbest"][i],
                             f"{fr[i]:.6f}", f"{qu[i]:.6f}"])

    n_groups = len(report["groups"])
    header = ["algorithm"]
    for g in range(1, n_groups + 1):
        header += [f"S{g}", f"R{g}"]
    with open(out_dir / "scores.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, name in enumerate(names):
            row = [name]
            for g in range(n_groups):
                row += [report["group_scores"][i][g],
                        report["group_ranks"][i][g]]
            writer.writerow(row)
