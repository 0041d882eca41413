"""Sample statistics shared by the ledger's runner, comparer and tests."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50, 75, 80, 90, 95, 99)

#: A percentile is supported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie strictly above ``percentile``."""
    return int(n * (100 - percentile) / 100 + 1e-9)


def supported_percentile(n: int) -> Optional[int]:
    """The highest ladder percentile with at least ten samples beyond it."""
    supported = [
        p for p in PERCENTILE_LADDER if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
    ]
    return supported[-1] if supported else None


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness statistic (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
