"""Summary statistics the benchmark reports."""

import math
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples, target=90.0, beyond=10):
    """The latency tail the benchmark reports as p90.

    Nearest-rank percentile `target`, lowered when needed so that at
    least `beyond` samples lie above it: with n samples the rank is
    min(ceil(target/100 * n), n - beyond). At n >= 100 that is the
    plain p90. Returns (value, percentile actually reported, n); with
    fewer than beyond + 1 samples no such percentile exists and the
    maximum is returned as percentile 100.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(samples)
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = min(math.ceil(target / 100.0 * n), n - beyond)
    rank = max(rank, 1)
    return ordered[rank - 1], 100.0 * rank / n, n

