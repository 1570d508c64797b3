"""Order statistics and output digests used by the benchmark."""

from __future__ import annotations

import hashlib
import json
import statistics


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)`` (the
    default, exclusive method), the rule used to judge run-to-run spread.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def tail_rank(n: int, beyond: int = 10) -> tuple[int, float] | None:
    """Highest order statistic of ``n`` samples with at least ``beyond``
    samples above it, as (0-based index in sorted order, percentile).

    The percentile is the share of samples at or below that value, in
    percent.  Returns None when ``n <= beyond``: no such percentile exists.
    """
    k = n - beyond - 1
    if k < 0:
        return None
    return k, 100.0 * (k + 1) / n


def digest(items) -> str:
    """Short SHA-256 of a JSON-serialisable list of already rounded outputs."""
    blob = json.dumps(items, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def rounded(value: float, decimals: int) -> str:
    """Fixed-point text of ``value`` at ``decimals`` places, without -0."""
    return f"{round(float(value), decimals) + 0.0:.{decimals}f}"
