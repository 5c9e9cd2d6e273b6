"""Metric arithmetic shared by every workload (standard library only).

* Percentiles are nearest-rank. A percentile is *reportable* only when at
  least :data:`MIN_BEYOND` samples lie strictly above its rank, so a p99
  needs 1000 samples; :func:`tail` falls back to the highest reportable
  percentile and says which one it used.
* Open-loop latency is timed from the moment a request was *due*, not
  from when the generator got round to sending it, so a stall also
  charges the requests queued behind it.
* A ladder step sustains its rate when nothing was shed, its p99 meets
  the latency limit, and its backlog did not grow (:func:`step_passes`).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Percentiles :func:`tail` may fall back to, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def nearest_rank(n: int, q: float) -> int:
    """0-based index of the nearest-rank ``q``-th percentile of ``n``."""
    return min(max(math.ceil(q / 100.0 * n) - 1, 0), n - 1)


def beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile's rank out of ``n``."""
    return n - nearest_rank(n, q) - 1 if n else 0


def percentile(values: Iterable[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when it is not reportable."""
    ordered = sorted(values)
    if beyond(len(ordered), q) < MIN_BEYOND:
        return None
    return ordered[nearest_rank(len(ordered), q)]


def tail(values: Iterable[float], q: float = 99.0) -> Tuple[float, float, int]:
    """``(value, percentile_used, sample_count)`` for a tail percentile.

    Uses ``q`` when reportable, else the highest reportable entry of
    :data:`TAIL_LADDER` below it, else the maximum (percentile ``100``).
    An empty sample gives ``(0.0, 0.0, 0)``.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0, 0
    for level in (q,) + tuple(p for p in TAIL_LADDER if p < q):
        value = percentile(ordered, level)
        if value is not None:
            return value, level, len(ordered)
    return ordered[-1], 100.0, len(ordered)


def due_latencies(
    due: Sequence[float], done: Sequence[Optional[float]]
) -> List[Optional[float]]:
    """Per-request latency from its due time; ``None`` for a request
    that never completed (shed or failed)."""
    return [
        None if finished is None else finished - scheduled
        for scheduled, finished in zip(due, done)
    ]


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator issued each request (never negative)."""
    return [max(s - d, 0.0) for d, s in zip(due, sent)]


def failed_frac(attempted: int, failed: int) -> float:
    """Failed or shed operations over attempted ones."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def backlog_at_end(
    due: Sequence[float], done: Sequence[Optional[float]]
) -> int:
    """Requests of a step still outstanding when its last one fell due
    (a shed request counts: it was never served)."""
    if not due:
        return 0
    last_due = max(due)
    return sum(1 for t in done if t is None or t > last_due)


def step_passes(
    rate: float,
    latencies: Sequence[Optional[float]],
    backlog: int,
    limit_s: float,
) -> bool:
    """Did one ladder step sustain ``rate`` within the latency limit?

    Every request must have completed (``None`` is a shed or failure,
    which misses any limit), the p99 of due-time latency must be at
    most ``limit_s`` (the maximum when p99 is not reportable), and the
    end-of-step backlog must not exceed what Little's law allows at
    that limit (``rate * limit_s``, at least one request).
    """
    if not latencies or any(lat is None for lat in latencies):
        return False
    worst, _level, _n = tail(latencies, 99.0)
    return worst <= limit_s and backlog <= max(1.0, rate * limit_s)


def sustained_rate(steps: Sequence[Tuple[float, bool]]) -> float:
    """Highest ladder rate that passed with every lower rate passing.

    ``steps`` is ``(rate, passed)`` in any order; a step that passes
    above a failed one is not counted (its pass was luck, not
    capacity). Returns ``0.0`` when the lowest step already failed.
    """
    best = 0.0
    for rate, passed in sorted(steps):
        if not passed:
            break
        best = rate
    return best


def interval_union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``s."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total
