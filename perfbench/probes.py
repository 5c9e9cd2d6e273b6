"""Measurement probes that sit outside the program under test.

* :class:`Tracer` wraps public entry points of the runtime's layers
  (transport, checkpoint manager, engines, serving front end) and keeps
  one span per call in memory: name, tag, start, end and the span that
  was open on the same thread when it began. :meth:`Tracer.dump` writes
  them out as JSON lines once the run is over.
* :class:`RssSampler` tracks the peak resident memory of this process
  plus its live child processes, read from ``/proc``.
* :func:`stop_children` ends every process this one started (workers,
  oracle pools, the ``multiprocessing`` resource tracker) and waits for
  each, so nothing outlives a run.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "thread")

    def __init__(self, name, tag, start, parent, thread) -> None:
        self.name = name
        self.tag = tag
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder around patched entry points.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` — an instance
    attribute when ``owner`` is an object, the class attribute when it
    is a class — with a recording wrapper; :meth:`restore` undoes every
    patch. ``tag(args, kwargs)`` maps the call's arguments to a label
    (e.g. a round's command tag).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._local = threading.local()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> None:
        is_class = isinstance(owner, type)
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        record = self._record

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return record(name, tag, original, args, kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, is_class))

    def restore(self) -> None:
        for owner, attr, original, is_class in reversed(self._patches):
            if is_class:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def _record(self, name, tag, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        label = tag(args, kwargs) if tag is not None else None
        span = Span(
            name,
            label,
            time.perf_counter(),
            stack[-1] if stack else None,
            threading.current_thread().name,
        )
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(
        self, name: str, start: float, end: float, tag: Any = None
    ) -> None:
        """Record a span timed by the caller (e.g. benchmark phases)."""
        span = Span(name, tag, start, None, threading.current_thread().name)
        span.end = end
        self.spans.append(span)

    def named(self, name: str, since: int = 0) -> List[Span]:
        return [s for s in self.spans[since:] if s.name == name]

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """One JSON line per span; ``parent`` is the parent's ``id`` or
        ``-1``."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "tag": s.tag,
                            "start": s.start,
                            "end": s.end,
                            "parent": ids.get(id(s.parent), -1),
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )


def _status_kb(pid: Any, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def child_pids(parent: int) -> Iterable[int]:
    # Every process is scanned: pids wrap around at pid_max, so a child
    # can have a smaller pid than its parent.
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            yield int(entry)


class RssSampler:
    """Peak of (this process's RSS + its live children's peak RSS), MB.

    A background thread samples every ``interval`` seconds; children
    report their own high-water mark (``VmHWM``), so a worker's peak
    between samples is not lost, and a child counts only while it is
    alive (a respawned worker does not add to the one it replaced). Use
    as a context manager around one job; ``peak_mb`` holds the result.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        total_kb = _status_kb("self", "VmRSS:")
        for pid in child_pids(os.getpid()):
            total_kb += _status_kb(pid, "VmHWM:")
        self.peak_mb = max(self.peak_mb, total_kb / 1024.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-rss", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._stop.set()
        assert self._thread is not None
        self._thread.join()
        self.sample()


def _wait_gone(pid: int, grace: float) -> None:
    """Reap ``pid``, killing it if it has not ended within ``grace``."""
    deadline = time.monotonic() + grace
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() >= deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            return
        time.sleep(0.01)


def stop_children(grace: float = 5.0) -> None:
    """Stop every child process of this one and wait until each ends.

    Jobs join their own workers, so normally only the ``multiprocessing``
    resource tracker is left: it lives until its pipe closes and would
    otherwise exit only after this process has. Other children go first
    (a forked worker holds the tracker's pipe too); the tracker's pipe
    is then closed so it unlinks what it still tracks and exits by
    itself. Anything still running after ``grace`` seconds is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = tracker._pid
    for pid in list(child_pids(os.getpid())):
        if pid != tracker_pid:
            _wait_gone(pid, grace)
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        tracker._pid = None
    if tracker_pid is not None:
        _wait_gone(tracker_pid, grace)
