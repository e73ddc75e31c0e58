"""Order statistics used for every reported timing."""

from __future__ import annotations

import statistics

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """The highest percentile that still has TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, n)``.  The value is the sample with exactly
    TAIL_BEYOND samples above it in sorted order, and the percentile is the
    share of samples at or below it.  When that percentile would fall below
    the median (fewer than 2 * TAIL_BEYOND samples), no tail is resolved and
    the median is returned with percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - TAIL_BEYOND                   # 1-based rank of the tail sample
    if 2 * rank < n:
        return median(ordered), 50.0, n
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def batch_means(values, k: int) -> list[float]:
    """Means of consecutive groups of ``k`` values; a shorter last group is dropped."""
    return [sum(values[i:i + k]) / k for i in range(0, len(values) - k + 1, k)]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
