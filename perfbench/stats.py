"""Statistics helpers shared by the benchmark and its tests.

Pure functions only: no timing, no I/O, so every rule here has a
hand-computed test in ``perfbench/test_helpers.py``.
"""

from __future__ import annotations

import math

#: candidate tail percentiles, highest first (see :func:`tail_percentile`).
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

#: a percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """The 1-based nearest rank of the ``p``-th percentile of ``n``
    samples (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[rank(len(samples), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``p``-th percentile."""
    return n - rank(n, p)


def tail_percentile(samples, ladder=TAIL_LADDER):
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, as ``(p, value, count)``; ``None`` when no rung of the
    ladder qualifies (fewer than about twenty samples)."""
    n = len(samples)
    for p in sorted(ladder, reverse=True):
        if beyond(n, p) >= MIN_BEYOND:
            return p, percentile(samples, p), n
    return None


def dispatch_overhead_pct(wall_s: float, busy_s: list[float],
                          workers: int) -> float:
    """The share of a farm run's wall time not explained by its jobs.

    No schedule can finish before ``max(sum(busy) / workers,
    max(busy))``: the pool's total work spread evenly, or the longest
    single job.  Whatever wall time exceeds that bound went to dispatch,
    queueing, worker start-up and imbalance the scheduler could have
    avoided.  Returned as a percentage of ``wall_s``.
    """
    if wall_s <= 0 or workers < 1:
        raise ValueError("wall time and worker count must be positive")
    ideal = max(sum(busy_s) / workers, max(busy_s, default=0.0))
    return 100.0 * (wall_s - ideal) / wall_s
