"""Percentiles and the tail rule shared by every workload."""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics.

    Infinite values (failed operations) sort last, so they count as
    missing any latency limit.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    if fraction == 0.0 or ordered[high] == ordered[low]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_percentile(n: int, cap: float) -> float:
    """Highest ladder percentile at or below ``cap`` with at least
    :data:`TAIL_BEYOND` of ``n`` samples beyond it.

    Each workload freezes ``cap`` at the percentile its seed run
    supports, so a faster program that completes more operations is
    still compared at the same percentile.
    """
    for q in TAIL_LADDER:
        if q <= cap and round(n * (100.0 - q) / 100.0, 9) >= TAIL_BEYOND:
            return q
    return 50.0


def latency_summary(seconds: list[float], cap: float,
                    window: "int | None" = None) -> dict:
    """Median and tail of a latency sample, in milliseconds.

    With ``window``, the tail is taken in each run of ``window``
    consecutive samples and the median of those tails is reported.
    """
    if window is None or len(seconds) < 2 * window:
        window = len(seconds)
    q = tail_percentile(window, cap)
    tails = [percentile(seconds[start:start + window], q)
             for start in range(0, len(seconds) - window + 1, window)]
    return {"p50_ms": percentile(seconds, 50.0) * 1e3,
            "tail_ms": percentile(tails, 50.0) * 1e3,
            "tail_q": q, "n": len(seconds), "window": window}
