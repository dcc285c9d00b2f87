"""Friedman and Quade tests over a median matrix.

Functions are the blocks (samples), algorithms the treatments. Both tests
consume average-tie ranks; the reported headline rankings elsewhere use
competition ranks, which is why the two tables can differ.

References for the formulas are the standard nonparametric-statistics
textbook treatments; the Quade ranking reported here is the weighted
average rank W_j / (n(n+1)/2).
"""

from __future__ import annotations

import numpy as np

from .ranking import MedianMatrix, rank_column, rank_matrix
from .special import chi2_sf, f_sf


def friedman(matrix: MedianMatrix) -> dict:
    """Friedman test as a plain dict, with tie-corrected and plain statistics."""
    ranks = rank_matrix(matrix, "average")
    k = len(matrix.algorithms)
    n = len(matrix.functions)
    if k < 2 or n < 2:
        raise ValueError("need at least 2 algorithms and 2 functions")
    mean_ranks = ranks.mean(axis=1)
    chi_plain = 12.0 * n / (k * (k + 1)) * np.sum((mean_ranks - (k + 1) / 2.0) ** 2)

    # tie correction: one (t^3 - t) term per tie group per function column
    tie_sum = 0.0
    for j in range(n):
        _, counts = np.unique(matrix.values[:, j], return_counts=True)
        tie_sum += float(np.sum(counts.astype(float) ** 3 - counts))
    correction = 1.0 - tie_sum / (n * k * (k * k - 1))
    if correction <= 0.0:
        # every column fully tied: no evidence of any difference
        chi_plain, chi_corrected, p_value = 0.0, 0.0, 1.0
    else:
        chi_corrected = float(chi_plain / correction)
        p_value = chi2_sf(chi_corrected, k - 1)
    return {
        "mean_ranks": mean_ranks.tolist(),
        "statistic": chi_corrected,
        "statistic_uncorrected": float(chi_plain),
        "p_value": p_value,
        "dof": k - 1,
    }


def quade(matrix: MedianMatrix) -> dict:
    """Quade test as a plain dict: functions weighted by their range's rank."""
    ranks = rank_matrix(matrix, "average")
    k = len(matrix.algorithms)
    n = len(matrix.functions)
    if k < 2 or n < 2:
        raise ValueError("need at least 2 algorithms and 2 functions")

    ranges = matrix.values.max(axis=0) - matrix.values.min(axis=0)
    q = rank_column(ranges, "average")  # weight of each function

    centered = ranks - (k + 1) / 2.0
    s = centered * q[np.newaxis, :]
    s_j = s.sum(axis=1)
    a = float(np.sum(s * s))
    b = float(np.sum(s_j ** 2)) / n

    w_j = (ranks * q[np.newaxis, :]).sum(axis=1)
    weighted_ranks = w_j / (n * (n + 1) / 2.0)

    dof = [k - 1, (k - 1) * (n - 1)]
    if a == 0.0:
        # every column fully tied: no evidence of any difference
        stat, p_value = 0.0, 1.0
    elif a <= b:
        # perfect agreement across functions: the statistic diverges
        stat, p_value = float("inf"), 0.0
    else:
        stat = (n - 1.0) * b / (a - b)
        p_value = f_sf(stat, *dof)
    return {
        "weighted_ranks": weighted_ranks.tolist(),
        "statistic": stat,
        "p_value": p_value,
        "dof": dof,
        "function_weights": q.tolist(),
    }
