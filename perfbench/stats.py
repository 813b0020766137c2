"""Arithmetic shared by the workloads: percentiles, due-time latency,
generator lag and self time.  Pure functions, so the benchmark's own tests
can pin them down."""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Candidate tail percentiles, highest first.  The reported tail is the first
#: one with at least ``MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
SUBWINDOWS = 3
#: The printed tails never go above p95: at this benchmark's run length
#: p98/p99 of the served latencies moved by ~10% between seeds, p95 by less.
TAIL_CAP = 95.0


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail_percentile(n: int, cap: float = 100.0) -> Optional[float]:
    """The highest ladder percentile, at most ``cap``, with at least ten
    samples beyond it, or ``None`` when ``n`` is too small for any."""
    for q in TAIL_LADDER:
        if q <= cap and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float], cap: float = TAIL_CAP) -> Dict[str, float]:
    """Median and tail of ``values``.

    The tail is the highest percentile up to ``cap`` with ten samples beyond
    it; when a run has too few samples for any, it is the slowest sample and
    ``tail_q`` is 100.
    """
    q = tail_percentile(len(values), cap)
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_q": 100.0 if q is None else q,
        "tail": max(values) if q is None else percentile(values, q),
    }


def subwindow_median(
    values: Sequence[float], at: Sequence[float], span: float, stat: Callable[[List[float]], float],
    parts: int = SUBWINDOWS,
) -> float:
    """Median over ``parts`` equal sub-windows of ``[0, span)`` of ``stat``
    applied to the values whose ``at`` time falls in each."""
    groups: List[List[float]] = [[] for _ in range(parts)]
    for value, when in zip(values, at):
        groups[min(parts - 1, max(0, int(when / span * parts)))].append(value)
    return statistics.median(stat(group) for group in groups if group)


def due_latencies(due: Sequence[float], arrived: Sequence[float]) -> List[float]:
    """Open-loop latency of each operation in ms, timed from when it was due
    to be sent, so a stall in the sender counts against every later request."""
    return [1000.0 * (a - d) for d, a in zip(due, arrived)]


def generator_lags(
    due: Sequence[float], sent: Sequence[float], free: Optional[Sequence[float]] = None
) -> List[float]:
    """How late the generator issued each operation, in ms.

    An operation can go out at ``max(due, free)``: its due time, or when its
    connection came free after the previous reply.  Anything later is the
    generator's own delay.
    """
    if free is None:
        free = due
    return [1000.0 * (s - max(d, f)) for d, s, f in zip(due, sent, free)]


def unattributed_seconds(wall: float, leaf_self_seconds: Iterable[float]) -> float:
    """Wall time that no layer's self time accounts for."""
    return wall - sum(leaf_self_seconds)
