"""Statistics shared by run.py and compare.py.

Timings are summarised robustly: medians, the quartiles that
statistics.quantiles(n=4) gives, and a tail percentile chosen so that it
always has at least ten samples beyond it.
"""

import math
import statistics

# Verdicts of one workload x metric comparison.
BETTER = "better"
WORSE = "worse"
WITHIN = "within-bound"
UNRESOLVED = "unresolved"


def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        return (float("nan"),) * 3
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples_beyond). With sorted samples
    x[0..n-1], that is x[n-11]: the percentile is the share of samples at
    or below it. Fewer than eleven samples cannot satisfy the rule; the
    minimum is returned and samples_beyond says how many lie above it.
    Infinite samples (failed operations) sort last, as the guide asks: a
    failure misses every latency limit.
    """
    if not values:
        return float("nan"), 0.0, 0
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def verdict(parent, change, better, bound):
    """Judge one metric of one workload: parent runs against change runs.

    `better` is "lower" or "higher"; `bound` is the share of the parent's
    median by which the change may be worse before it counts as worse.

    - unresolved: the parent's own spread (quartile distance over median)
      is wider than the bound, unless every change run beats (or loses
      to) every parent run;
    - worse: the change median is worse than the parent median by more
      than the bound;
    - better: the change median is better by more than the parent's
      quartile distance, and the change wins at least nine in ten runs
      paired in order;
    - within-bound: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    pq1, pm, pq3 = quartiles(parent)
    cm = median(change)
    if not parent or not change or math.isnan(pm) or pm == 0:
        return UNRESOLVED
    worse_by = sign * (cm - pm) / abs(pm)  # > 0 means the change is worse
    if relative_spread(parent) > bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return BETTER
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return WORSE
        return UNRESOLVED
    if worse_by > bound:
        return WORSE
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if -worse_by * abs(pm) > (pq3 - pq1) and wins >= 0.9 * len(pairs):
        return BETTER
    return WITHIN
