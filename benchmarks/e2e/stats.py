"""Order statistics used by the benchmark and by ``compare``."""

from __future__ import annotations

import math
import statistics

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: list[float], min_beyond: int = 10) -> tuple[float, float] | None:
    """``(q, value)`` for the highest percentile in :data:`PERCENTILES`
    with at least ``min_beyond`` samples above it, or ``None`` when the
    sample supports not even the median."""
    supported = [
        q for q in PERCENTILES if round(len(values) * (100.0 - q) / 100.0, 6) >= min_beyond
    ]
    if not supported:
        return None
    q = supported[-1]
    return q, percentile(values, q)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def win_fraction(parent: list[float], change: list[float], lower_is_better: bool) -> float:
    """Share of ``(parent[i], change[i])`` pairs the change wins; ties
    count for neither side."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    wins = sum(1 for p, c in pairs if (c < p if lower_is_better else c > p))
    return wins / len(pairs)
