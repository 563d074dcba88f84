"""Arithmetic of the benchmark: percentiles, spreads and span self time."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly
    between order statistics, as numpy's default method does."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / q2


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id])
            for s in spans}


def layer_totals(spans) -> dict:
    """Trace id -> layer name -> {"s": inclusive seconds, "self_s": self
    seconds, and every count the layer's spans recorded, summed}."""
    own = self_times(spans)
    out = defaultdict(dict)
    for s in spans:
        row = out[s.trace].setdefault(s.name, {"s": 0.0, "self_s": 0.0})
        row["s"] += s.end - s.start
        row["self_s"] += own[s.id]
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return dict(out)
