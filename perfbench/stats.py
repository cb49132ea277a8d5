"""Statistics shared by the benchmark runner and the A/A comparison."""

import math
import statistics


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100]), as perfbench/stats.h computes it:
    the smallest value with at least q% of the values at or below it; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(math.ceil(q / 100.0 * len(ordered) - 1e-9), 1), len(ordered))
    return float(ordered[rank - 1])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return 0.0 if q2 == 0 else (q3 - q1) / abs(q2)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`.

    Negative when `second` is better. `better` is "lower" or "higher".
    """
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
