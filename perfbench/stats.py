"""Order statistics for benchmark samples.

Timings are reported as a median plus the highest percentile the sample
supports: the highest of :data:`PERCENTILES` with at least
:data:`MIN_BEYOND` samples strictly beyond it.  Percentiles use the
nearest-rank rule, so every reported value is one that was measured.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    # the epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing an exact rank up by one
    return max(math.ceil(q * n / 100.0 - 1e-9), 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """The highest supported percentile for ``n`` samples, or ``None``."""
    supported = [q for q in PERCENTILES if beyond(n, q) >= MIN_BEYOND]
    return max(supported) if supported else None


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even ``n``)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def summarize(values: Sequence[float], scale: float = 1.0) -> Dict[str, object]:
    """``n``, min, p50, max and the highest supported tail, times ``scale``."""
    n = len(values)
    if n == 0:
        return {"n": 0}
    tail = tail_percentile(n)
    summary: Dict[str, object] = {
        "n": n,
        "min": min(values) * scale,
        "p50": percentile(values, 50.0) * scale,
        "max": max(values) * scale,
    }
    if tail is not None:
        summary["tail_q"] = tail
        summary["tail"] = percentile(values, tail) * scale
    return summary
