"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot define the tail.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct``-th percentile (nearest rank), or None when fewer than
    :data:`TAIL_MIN_BEYOND` samples lie beyond it.

    With nearest rank the reported value is the ``ceil(pct/100 * n)``-th
    smallest sample, so ``n - rank`` samples lie beyond it.
    """
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < TAIL_MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
