"""The few statistics the benchmark reports, in one place so that the
run, the comparison and the tests agree on their definitions."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401 — the one median everyone uses


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them: the definition the acceptance driver uses."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quartile_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def largest_gap(values) -> float:
    """Largest pairwise gap as a share of the median."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0
