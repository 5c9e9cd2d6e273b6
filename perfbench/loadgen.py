"""Open-loop request generator for a :class:`repro.serve.GraphService`.

The schedule is fixed before the first request is sent: one step per
ladder rate, requests evenly spaced at that rate, and a seeded mix of
reads, scope reads and writes. The generator thread sends each request
when it falls due, whether or not earlier ones were answered (an open
loop: independent users, so a slow service gets no relief), and the
calling thread collects the replies. Only the public ``submit`` /
``Ticket`` surface is used. Latency is timed from each request's due
time; a shed request has no completion time.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.serve import ReadRequest, Rejection, WriteRequest


@dataclass
class Op:
    """One scheduled request; ``due`` is seconds after the step starts."""

    due: float
    kind: str  # "read" or "write"
    vertex: int
    scope: bool = False
    value: float = 0.0


@dataclass
class StepOutcome:
    """What one ladder step did, with absolute timestamps."""

    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[Optional[float]] = field(default_factory=list)
    shed: int = 0
    errors: int = 0


def make_step(
    rng: random.Random,
    rate: float,
    count: int,
    num_vertices: int,
    write_frac: float,
    scope_frac: float,
) -> List[Op]:
    """``count`` requests evenly spaced at ``rate`` per second."""
    ops = []
    for i in range(count):
        vertex = rng.randrange(num_vertices)
        if rng.random() < write_frac:
            value = rng.uniform(0.5, 2.0) / num_vertices
            ops.append(Op(i / rate, "write", vertex, value=value))
        else:
            ops.append(Op(i / rate, "read", vertex, rng.random() < scope_frac))
    return ops


def run_step(
    submit: Any, ops: Sequence[Op], timeout: float = 60.0
) -> StepOutcome:
    """Send ``ops`` open-loop through ``submit``; wait for every reply.

    A generator thread sleeps until each request is due and submits it
    (requests it is late for go out back to back); this thread waits on
    the tickets in order and stamps each completion. The two threads
    write disjoint slots of per-request lists, so no lock is needed.
    """
    out = StepOutcome()
    n = len(ops)
    out.sent = [0.0] * n
    out.done = [None] * n
    replies: List[Any] = [None] * n
    submitted = threading.Semaphore(0)
    start = time.perf_counter() + 0.01
    out.due = [start + op.due for op in ops]
    failure: List[BaseException] = []

    def generate() -> None:
        try:
            for i, op in enumerate(ops):
                wait = out.due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if op.kind == "write":
                    request: Any = WriteRequest(op.vertex, op.value)
                else:
                    request = ReadRequest(op.vertex, op.scope)
                out.sent[i] = time.perf_counter()
                replies[i] = submit(request)
                submitted.release()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failure.append(exc)
            for _ in range(n):
                submitted.release()

    thread = threading.Thread(target=generate, name="perfbench-loadgen")
    thread.start()
    try:
        for i in range(n):
            submitted.acquire()
            if failure:
                break
            reply = replies[i]
            if isinstance(reply, Rejection):
                out.shed += 1
                continue
            answer = reply.wait(timeout)
            if isinstance(answer, Rejection):
                out.errors += 1
                continue
            out.done[i] = time.perf_counter()
    finally:
        thread.join()
    if failure:
        raise failure[0]
    return out
