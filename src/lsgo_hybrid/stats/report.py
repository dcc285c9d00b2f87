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


def _tables(report: dict) -> list[tuple[str, list[str], list[str], list[list[str]]]]:
    """(file name, title lines, header, rows) of each table of `report`.

    Every cell is the string that both its CSV file and the text report show.
    """
    names = report["algorithms"]
    fr, qu = report["friedman"], report["quade"]
    groups = report["groups"]
    return [
        ("ranks.csv",
         ["Per-function competition ranks (lower is better)"],
         ["algorithm", *report["functions"], "nbest"],
         [[name, *map(str, ranks), str(best)] for name, ranks, best
          in zip(names, report["competition_ranks"], report["nbest"])]),
        ("tests.csv",
         ["Omnibus tests over per-function ranks",
          f"  chi-square test: statistic {fr['statistic']:.4f} "
          f"(uncorrected {fr['statistic_uncorrected']:.4f}), "
          f"dof {fr['dof']}, p-value {fr['p_value']:.4e}",
          f"  range-weighted F test: statistic {qu['statistic']:.4f}, "
          f"dof ({qu['dof'][0]}, {qu['dof'][1]}), p-value {qu['p_value']:.4e}"],
         ["algorithm", "nbest", "friedman_mean_rank", "quade_weighted_rank"],
         [[name, str(best), f"{mean:.6f}", f"{weighted:.6f}"]
          for name, best, mean, weighted
          in zip(names, report["nbest"], fr["mean_ranks"], qu["weighted_ranks"])]),
        ("scores.csv",
         ["Race-style scores per function group (higher is better)",
          "  " + ", ".join(f"S{g}={'+'.join(group)}"
                           for g, group in enumerate(groups, start=1))],
         ["algorithm", *(f"{kind}{g}" for g in range(1, len(groups) + 1)
                         for kind in "SR")],
         [[name, *(str(v) for pair in zip(scores, ranks) for v in pair)]
          for name, scores, ranks
          in zip(names, report["group_scores"], report["group_ranks"])]),
    ]


def format_text(report: dict) -> str:
    """Each table under its title lines, the CSV cells in aligned columns."""
    lines = []
    for _, titles, header, rows in _tables(report):
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        lines += titles
        for name, *values in (header, *rows):
            lines.append("  ".join([name.ljust(widths[0])] + [
                value.rjust(width) for value, width in zip(values, widths[1:])]))
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
    for file_name, _, header, rows in _tables(report):
        with open(out_dir / file_name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
