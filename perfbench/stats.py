"""Order statistics for latency samples: medians, tails and spreads."""

from __future__ import annotations

import statistics

__all__ = ["TAIL_CANDIDATES", "percentile", "supported_tail", "summarize", "spread"]

#: Tail percentiles in preference order (highest first).
TAIL_CANDIDATES = (99, 95, 90)

#: A tail percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(count: int) -> int | None:
    """The highest tail percentile with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest candidate is not supported by ``count``
    samples.
    """
    for q in TAIL_CANDIDATES:
        if count * (100 - q) >= MIN_BEYOND * 100:
            return q
    return None


def summarize(values, tail: int) -> dict:
    """Median, the fixed ``tail`` percentile and the quartiles of ``values``."""
    if not values:
        return {"samples": 0}
    return {
        "samples": len(values),
        "p25": percentile(values, 25),
        "p50": percentile(values, 50),
        "p75": percentile(values, 75),
        f"p{tail}": percentile(values, tail),
        "max": max(values),
        "tail_supported": supported_tail(len(values)),
    }


def spread(values) -> dict:
    """Median and inter-quartile distance (as a share of the median)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "iqr_share": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else 0.0
    return {"median": median, "iqr_share": share, "values": values}
