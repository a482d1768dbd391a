"""The benchmark's own arithmetic: percentiles, self time, critical path.

Kept free of any ``repro`` import so the tests in ``perfbench/tests``
exercise it alone.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10     # samples a tail percentile needs strictly above its rank


class ThinTail(ValueError):
    """A tail percentile asked of a sample with too few values beyond it."""


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of an empty sample")
    return float(statistics.median(samples))


def tail(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile, refused unless it is supported.

    The value at rank ``ceil(q * n)`` counts only when at least
    :data:`MIN_BEYOND` samples lie beyond that rank; otherwise the
    sample cannot tell this percentile from the maximum, and
    :class:`ThinTail` is raised.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile level must be in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise ThinTail(f"p{100 * q:g} of {n} samples has {n - rank} beyond it; "
                       f"needs {MIN_BEYOND}")
    return float(sorted(samples)[rank - 1])


def union_length(intervals: Sequence[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    covered, reach = 0, lo
    for a, b in clipped:
        if b <= reach:
            continue
        covered += b - max(a, reach)
        reach = b
    return covered


def self_time(start: int, end: int, children: Sequence[tuple[int, int]]) -> int:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)


def critical_path_rps(records: int, router_cpu_s: float,
                      worker_cpu_s: Sequence[float]) -> float:
    """Records per second of the steps that block a closed-loop client.

    The router's own CPU plus the busiest worker's CPU: with one core
    per process that is the time the slowest path needs, and unlike
    wall time it does not depend on what else the host runs.
    """
    seconds = router_cpu_s + max(worker_cpu_s)
    if records <= 0 or seconds <= 0:
        raise ValueError("critical path needs records and a positive CPU time")
    return records / seconds


def busy_skew(worker_cpu_s: Sequence[float]) -> float:
    """Busiest worker's CPU over the mean (1.0 = perfectly balanced)."""
    mean = sum(worker_cpu_s) / len(worker_cpu_s)
    return max(worker_cpu_s) / mean if mean > 0 else 1.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf
