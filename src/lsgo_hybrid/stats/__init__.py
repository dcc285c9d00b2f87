"""Ranking and nonparametric-test pipeline over cross-algorithm results."""

from .fixture import (
    METRICS,
    read_results,
    reference_median_matrix,
)
from .nonparametric import friedman, quade
from .ranking import (
    DEFAULT_GROUPS,
    F1_POINTS,
    MedianMatrix,
    f1_scores,
    nbest,
    points_for_rank,
    rank_column,
    rank_matrix,
)
from .report import format_text, full_report, write_report
from .special import beta_inc, chi2_sf, f_sf

__all__ = [
    "METRICS",
    "read_results",
    "reference_median_matrix",
    "friedman",
    "quade",
    "DEFAULT_GROUPS",
    "F1_POINTS",
    "MedianMatrix",
    "f1_scores",
    "nbest",
    "points_for_rank",
    "rank_column",
    "rank_matrix",
    "format_text",
    "full_report",
    "write_report",
    "beta_inc",
    "chi2_sf",
    "f_sf",
]
