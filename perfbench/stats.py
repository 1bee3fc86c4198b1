"""The benchmark's arithmetic: percentiles, failure accounting, self time.

Everything here is pure and stdlib-only so the unit tests in
``perfbench/tests`` can pin it down without a server.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 needs 1,000 samples, p90 needs 100, the median 20).
BEYOND = 10

#: Latency recorded for a request that failed or was refused: it misses
#: every latency limit, so it sorts after every answered request.
FAILED = math.inf


def min_samples(q: float) -> int:
    """Smallest sample count that puts :data:`BEYOND` samples past the
    *q*-th percentile (``q`` in percent)."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    return math.ceil(BEYOND * 100.0 / (100.0 - q) - 1e-9)


def supports(n: int, q: float) -> bool:
    """Whether *n* samples support the *q*-th percentile."""
    return n >= min_samples(q)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (``q`` in percent); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """:func:`nearest_rank`, refused when the sample is too small to leave
    :data:`BEYOND` samples beyond the percentile (:class:`ValueError`).

    Failed requests enter as :data:`FAILED` (+inf) and so sort last: if
    more than ``100 - q`` percent of requests failed, the percentile itself
    is +inf.
    """
    if not supports(len(values), q):
        raise ValueError(f"p{q:g} needs >= {min_samples(q)} samples, got {len(values)}")
    return nearest_rank(values, q)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for an empty sample (callers print the count beside it)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(start: int, end: int, children: Iterable[Tuple[int, int]]) -> int:
    """A span's busy time minus the part of it its children cover.

    Children are clipped to the parent's interval, so the result lies in
    ``[0, end - start]``: never negative, even with overlapping or
    overhanging child spans.
    """
    busy = max(0, end - start)
    clipped = [
        (max(start, c0), min(end, c1)) for c0, c1 in children if c1 > start and c0 < end
    ]
    return max(0, busy - covered(clipped))


def finite(value: float) -> float:
    """JSON has no infinity: report +inf as the largest finite double."""
    if math.isnan(value):
        raise ValueError("NaN metric")
    return value if math.isfinite(value) else math.copysign(1.7976931348623157e308, value)
