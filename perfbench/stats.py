"""Summary statistics shared by the benchmark and its comparison tool."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Tail percentiles considered for a timing, highest first.
TAILS = (99.9, 99.0, 90.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest tail percentile with at least ten samples beyond it.

    ``None`` when even p90 has fewer than ten samples above it (fewer
    than 100 samples): such a timing is reported by its median only.
    """
    for q in TAILS:
        if n * (100.0 - q) / 100.0 >= 10 - 1e-9:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
