"""Bundled cross-algorithm results table for the ranking pipeline.

The package ships a frozen CSV of published final-value statistics for
eleven optimizers on the fifteen benchmark functions at D=1000.  A sha256
sidecar guards against silent edits; loaders verify it before parsing.
`read_results` parses this table, `run`'s summary.csv and `stats --input`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from functools import lru_cache

from ..benchmarks import FUNCTION_IDS
from ..data import read_bytes as _read_bundled
from .ranking import MedianMatrix

METRICS = ("best", "median", "worst", "mean", "stddev")

_CSV_NAME = "reference_results.csv"
_HASH_NAME = "reference_results.sha256"


def read_results(text: str, source: str) -> dict[str, MedianMatrix]:
    """Results table from CSV text, one matrix per metric.

    A header `algorithm,F1,...` makes every row a median; a header
    `algorithm,metric,F1,...` names each row's metric. Every error is a
    ValueError naming `source`, the row and the column.
    """
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise ValueError(f"{source}: empty input")
    header = rows[0]
    if header[0] != "algorithm":
        raise ValueError(f"{source}: row 1, column 1: first column must be 'algorithm'")
    first = 2 if header[1:2] == ["metric"] else 1
    functions = header[first:]
    if not functions:
        raise ValueError(f"{source}: row 1: no function columns")
    for j, name in enumerate(functions):
        if name in functions[:j]:
            raise ValueError(f"{source}: row 1, column {first + j + 1}: "
                             f"repeated function column {name!r}")

    tables: dict[str, tuple[list[str], list[list[float]]]] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            column = header[len(row)] if len(row) < len(header) else len(header) + 1
            raise ValueError(f"{source}: row {i}, column {column}: "
                             f"expected {len(header)} fields, got {len(row)}")
        metric = row[1].strip().lower() if first == 2 else "median"
        algorithms, values = tables.setdefault(metric, ([], []))
        if row[0] in algorithms:
            raise ValueError(f"{source}: row {i}, column algorithm: "
                             f"duplicate algorithm {row[0]!r} in the {metric} rows")
        parsed = []
        for name, cell in zip(functions, row[first:]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{source}: row {i}, column {name}: "
                                 f"not a finite number: {cell!r}")
            parsed.append(value)
        algorithms.append(row[0])
        values.append(parsed)
    return {metric: MedianMatrix(algorithms, list(functions), values)
            for metric, (algorithms, values) in tables.items()}


@lru_cache(maxsize=1)
def _load() -> dict[str, MedianMatrix]:
    raw = _read_bundled(_CSV_NAME)
    expected = _read_bundled(_HASH_NAME).decode("ascii").strip()
    actual = hashlib.sha256(raw).hexdigest()
    if actual != expected:
        raise RuntimeError(
            f"bundled results table is corrupt: sha256 {actual} != {expected}"
        )

    tables = read_results(raw.decode("ascii"), _CSV_NAME)
    if (sorted(tables) != sorted(METRICS)
            or tables["median"].functions != list(FUNCTION_IDS)
            or any(m.algorithms != tables["median"].algorithms for m in tables.values())):
        raise RuntimeError(f"bundled results table must hold the metrics {METRICS} "
                           "of the same algorithms, in the same order, on F1..F15")
    return tables


def reference_median_matrix() -> MedianMatrix:
    """The median-of-25-runs matrix driving every ranking in the suite."""
    matrix = _load()["median"]
    return MedianMatrix(list(matrix.algorithms), list(matrix.functions), matrix.values.copy())
