"""Metric arithmetic shared by the benchmark runner and the spread checker.

Everything here is pure: spans, counts and values in, numbers out, so the
tests can pin each rule without running a workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

# the verdict rule of lkcurv.report: three reported uncertainties, floor 1e-6
COVER_SIGMA = 3.0
COVER_FLOOR = 1e-6


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0.0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(q2)


def fastest_pass(case_seconds: Sequence[Sequence[float]]) -> float:
    """Wall time of one pass built from the fastest run of every case.

    Slow runs come from other load on the host, so the minimum is the
    steadiest estimate of a case's own cost (as in ``timeit``).
    """
    return float(sum(min(runs) for runs in case_seconds))


def ratio(num: float, den: float) -> float:
    """num / den, with 0 for an empty base (the layer was never reached)."""
    return float(num) / float(den) if den else 0.0


def accept_ratio(samples: int, rejected: int) -> float:
    """Accepted Grassmannian samples over all draws, redraws included."""
    return ratio(samples, samples + rejected)


def covered(value: float, exact: float, uncertainty: float) -> bool:
    """Whether the exact value lies within the verdict tolerance of a side."""
    return abs(value - exact) <= max(COVER_SIGMA * uncertainty, COVER_FLOOR)


def covered_frac(flags: Iterable[bool]) -> float:
    flags = list(flags)
    return ratio(sum(1 for f in flags if f), len(flags))


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Self time per span name.

    Each span is ``(name, start, end, parent)`` where ``parent`` is the index
    of the enclosing span or -1.  A span's self time is its duration minus the
    durations of its direct children; children nest inside their parent, so
    this is the part of the interval no child covers.
    """
    child_time: List[float] = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
    return dict(totals)
