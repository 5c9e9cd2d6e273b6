"""The runtime pipelined locking engine (paper Sec. 4.2.2), on real
OS processes.

This is the general engine of the paper — arbitrary update programs,
dynamic per-worker scheduling, any consistency model — executed on the
same :class:`~repro.runtime.transport.Transport` backends as the
chromatic engine. Where the chromatic engine needs a graph coloring and
runs in color-step barriers, this engine takes *any* schedule and
serializes conflicting scopes with **distributed readers-writer locks**:

* **Owner-side lock queues, routed like ghost entries.** Each worker
  owns the locks for its owned vertices (an
  :class:`~repro.distributed.locks.RWQueueCore` FIFO table — the same
  grant discipline as the simulator's ``VertexLockTable``). Lock
  requests, grants, and unlocks cross the coordinator as int32 batches
  in the same per-round routed inboxes that carry dirty ghost entries
  and scheduling requests; workers never address each other directly.
* **Canonical-order chains.** A scope's lock plan is grouped into
  per-owner hops in the canonical ``(owner, vertex_index)`` total order
  (:func:`~repro.distributed.locks.build_lock_chain`, shared verbatim
  with the simulated engine) and acquired one group at a time, which
  makes deadlock impossible: a scope holding locks at worker ``m`` only
  ever waits at workers ``> m``, and within one worker groups enqueue
  atomically into consistently-ordered FIFO queues.
* **Pipelined acquisition** (the paper's Fig. 3b/8b effect). Each
  worker keeps up to ``pipeline_window`` scopes with in-flight lock
  chains while executing every scope whose locks are all held, so the
  2+ rounds of latency a remote lock hop costs are overlapped with
  useful local computation. Ghost data needs no separate prefetch: the
  push-based version protocol delivers a conflicting predecessor's
  writes **no later than the inbox that carries the grant** (the unlock
  and the dirty entries leave the previous holder in the same round,
  and data is applied before grants are processed), so a granted scope
  always reads state at least as fresh as the serialization order
  requires.
* **Termination by distributed consensus.** The Misra marker-ring
  semantics of :mod:`repro.distributed.consensus` ported onto the
  barrier loop: workers report idle, the coordinator blackens a worker
  whenever it executes or is routed any message, and a
  :class:`~repro.distributed.consensus.MisraToken` hops through idle
  workers between rounds — the run ends when a full white idle circuit
  completes (and, belt-and-braces, every routed inbox is empty).

Correctness contract: **sequential consistency, not bit-identity**. The
locks guarantee conflict-serializability — two scopes whose write sets
intersect the other's read-or-write sets never hold their scopes
concurrently — so every run is equivalent to *some* serial schedule,
but which one depends on real interleaving. Deterministic workloads
therefore land on the same fixed point as ``SequentialEngine`` (and a
single-worker run reproduces its FIFO order exactly); per-update
histories may differ. Property-tested in
``tests/test_runtime_locking.py`` by checking every executed scope
against the consistency model's write sets and by fixed-point
equivalence with the sequential oracle.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.sync import GlobalValues
from repro.core.update import normalize_schedule
from repro.distributed.consensus import MisraToken
from repro.distributed.deploy import OwnershipPlan, plan_ownership
from repro.errors import EngineError, SnapshotError
from repro.obs.events import Stopwatch
from repro.obs.timeline import TimelineCollector, drain_telemetry
from repro.runtime.checkpoint import (
    CheckpointManager,
    SnapshotCadence,
    merge_journals,
)
from repro.runtime.engine import (
    RuntimeRunResult,
    apply_collect_replies,
    baseline_journals,
    encode_shared_init,
    provision_plane,
    write_back_plane_columns,
)
from repro.runtime.program import check_picklable
from repro.runtime.transport import Transport, WorkerFailure, make_transport
from repro.runtime.worker import LockWorkerInit, encode_worker

#: Drain rounds a synchronous snapshot may spend reaching quiescence
#: before giving up. Every drain round strictly shrinks in-flight work
#: (no new scopes are admitted), so hitting this means a protocol bug,
#: not a slow pipeline.
_MAX_DRAIN_ROUNDS = 10_000


def empty_lock_inbox() -> Dict[str, Any]:
    """A fresh routing inbox for one locking-engine round.

    ``data``/``plane``/``globals`` are exactly the chromatic wire
    (pickled ghost batches, ring descriptors, published globals);
    ``sched`` carries ``(int32 indices, float64 priorities | None)``
    pairs — priorities matter here, unlike the chromatic engine;
    ``lock`` carries ``(src, int32 batch)`` request groups for this
    worker's lock table, ``grant`` int32 scope ids for its in-flight
    chains, ``unlock`` int32 ``(vertex, kind)`` pairs to release;
    ``ssched`` int32 index arrays asking this worker to snapshot its
    vertices (the cross-partition propagation of Alg. 5).
    """
    return {
        "data": None,
        "plane": [],
        "sched": [],
        "globals": [],
        "lock": [],
        "grant": [],
        "unlock": [],
        "ssched": [],
    }


def _inboxes_quiet(inboxes: List[Dict[str, Any]]) -> bool:
    """No routed message of any kind is awaiting delivery."""
    return all(
        not value for inbox in inboxes for value in inbox.values()
    )


class RuntimeLockingEngine:
    """Pipelined distributed locking execution on real worker processes.

    Parameters
    ----------
    graph:
        Finalized data graph; holds the final state after :meth:`run`.
    program:
        Picklable update function or
        :class:`~repro.runtime.program.UpdateProgram`.
    num_workers / transport:
        Worker count and backend (``"mp"``, ``"inproc"``, or an
        unlaunched :class:`~repro.runtime.transport.Transport`).
    consistency:
        Any model — no coloring needed. Serializability holds for EDGE
        and FULL; VERTEX deliberately allows the racy neighbor reads of
        Fig. 1(d) (write sets are still disjoint under its locks).
    scheduler:
        Per-worker dynamic scheduler: ``"fifo"`` or ``"priority"``.
    pipeline_window:
        Maximum scopes with in-flight lock chains per worker (the
        paper sweeps 100–10,000 in Figs. 3b/8b). 1 disables pipelining:
        a worker blocks on every remote lock chain.
    round_budget:
        Updates one worker may execute per round, so self-scheduling
        programs still yield the barrier (and ``max_updates`` overshoot
        stays bounded by one round of work).
    partitioner / assignment / atoms_per_worker:
        Placement knobs for :func:`~repro.distributed.deploy
        .plan_ownership`, identical to the chromatic engine.
    initial_globals:
        Seeded read-only global values (no sync operations here).
    max_updates / max_rounds:
        Stop conditions checked at round boundaries; ``max_updates`` may
        overshoot by up to one round of work per worker.
    reply_timeout / use_plane / plane_ring_cap:
        As for the chromatic engine.
    trace:
        Record every executed scope as ``(worker, round, vertex, reads,
        writes)`` into ``result.extra["trace"]`` for the
        serializability checker — tests only; disables the scope fast
        paths.
    snapshot_every / snapshot_dir / max_recoveries / recovery_backoff:
        Fault tolerance, as for the chromatic engine (the cadence
        counter here is rounds, not sweeps).
    snapshot_mode:
        ``"sync"`` (the default): drain the lock pipeline to quiescence
        at a barrier, then journal — the paper's synchronous snapshot.
        ``"async"``: the Chandy–Lamport snapshot of Alg. 5, run as
        lock-pipelined snapshot scopes *concurrent* with regular
        updates; the journaled cut is consistent but not quiescent, so
        recovery re-executes from a full task set and equivalence is
        fixed-point, not per-update.
    """

    def __init__(
        self,
        graph: DataGraph,
        program: Any,
        num_workers: int = 2,
        transport: Union[str, Transport] = "mp",
        consistency: Consistency = Consistency.EDGE,
        scheduler: str = "fifo",
        pipeline_window: int = 64,
        round_budget: int = 4096,
        partitioner: Any = "hash",
        assignment: Optional[Dict[VertexId, int]] = None,
        atoms_per_worker: int = 4,
        initial_globals: Optional[Dict[str, Any]] = None,
        max_updates: Optional[int] = None,
        max_rounds: Optional[int] = None,
        reply_timeout: Optional[float] = None,
        use_plane: bool = True,
        plane_ring_cap: Optional[int] = None,
        trace: bool = False,
        snapshot_every: Optional[Union[int, str]] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_mode: str = "sync",
        max_recoveries: int = 2,
        recovery_backoff: float = 0.05,
        telemetry: bool = False,
    ) -> None:
        graph.require_finalized()
        if num_workers < 1:
            raise EngineError("num_workers must be >= 1")
        if pipeline_window < 1:
            raise EngineError("pipeline_window must be >= 1")
        if round_budget < 1:
            raise EngineError("round_budget must be >= 1")
        if scheduler not in ("fifo", "priority"):
            raise EngineError(
                "locking engine scheduler must be 'fifo' or 'priority', "
                f"got {scheduler!r}"
            )
        if snapshot_mode not in ("sync", "async"):
            raise EngineError(
                "snapshot_mode must be 'sync' or 'async', "
                f"got {snapshot_mode!r}"
            )
        check_picklable(program)
        self.graph = graph
        self.program = program
        self.num_workers = num_workers
        self.transport = make_transport(
            transport, num_workers, reply_timeout=reply_timeout
        )
        self.consistency = consistency
        self.scheduler = scheduler
        self.pipeline_window = pipeline_window
        self.round_budget = round_budget
        self.plan: OwnershipPlan = plan_ownership(
            graph,
            num_workers,
            partitioner=partitioner,
            assignment=assignment,
            atoms_per_machine=atoms_per_worker,
        )
        self.owner = self.plan.owner
        self.globals = GlobalValues(initial_globals)
        self._initial_globals = dict(initial_globals or {})
        self.max_updates = max_updates
        self.max_rounds = max_rounds
        self.use_plane = use_plane
        self._plane_ring_cap = plane_ring_cap
        self.trace = trace
        self._csr = graph.compiled
        self._owner_idx = self.plan.owner_index
        self.updates_per_worker: Dict[int, int] = {
            w: 0 for w in range(num_workers)
        }
        self._plane = None
        self._ran = False
        # Fault tolerance (Sec. 4.3), mirroring the chromatic engine.
        self.snapshot_every = snapshot_every
        self.snapshot_dir = snapshot_dir
        self.snapshot_mode = snapshot_mode
        self.max_recoveries = max_recoveries
        self.recovery_backoff = recovery_backoff
        self._ckpt: Optional[CheckpointManager] = None
        self._cadence: Optional[SnapshotCadence] = None
        self._shared_blob: Optional[bytes] = None
        #: In-progress async snapshot (id + begin/finish handshake
        #: state); ``None`` when no Chandy–Lamport snapshot is running.
        self._async: Optional[Dict[str, Any]] = None
        self._recoveries = 0
        self._recovery_seconds = 0.0
        self._resume_seconds: Optional[float] = None
        # Observability (observe, never steer) — see the chromatic
        # engine; grant-latency spans here are the Fig. 3b/8b quantity.
        self.telemetry = telemetry
        self._collector: Optional[TimelineCollector] = (
            TimelineCollector(num_workers) if telemetry else None
        )

    @property
    def _rec(self):
        """Coordinator span recorder, or ``None`` when telemetry is off."""
        collector = self._collector
        return collector.coordinator if collector is not None else None

    # ------------------------------------------------------------------
    def run(
        self,
        initial: Iterable = (),
        resume_from: Optional[Any] = None,
    ) -> RuntimeRunResult:
        """Execute to quiescence (or a stop condition); single-use.

        With snapshots on, a :class:`WorkerFailure` mid-run respawns the
        dead worker, rolls every worker back to the latest complete
        snapshot (survivors included: ghosts, lock tables, pipelines,
        schedulers all reset), and resumes — at most ``max_recoveries``
        times. Restart-from-snapshot means the termination detector also
        restarts: black flags and a fresh Misra token.

        ``resume_from`` is a snapshot root from an earlier (crashed)
        run: instead of a baseline snapshot, the freshly-launched
        cluster is restored from the newest snapshot there that passes
        integrity verification, and new snapshots continue in the same
        directory. Requires ``snapshot_every``.
        """
        if self._ran:
            raise EngineError(
                "runtime engine instances are single-use (worker "
                "processes are torn down at run end); build a new one"
            )
        if resume_from is not None and self.snapshot_every is None:
            raise EngineError(
                "resume_from requires snapshot_every (a resumed run "
                "must keep snapshotting into the same directory)"
            )
        self._ran = True
        collector = self._collector
        rec = collector.coordinator if collector is not None else None
        self.transport.obs = rec
        sw = Stopwatch(rec, "run")
        num_workers = self.num_workers
        self._inboxes = [empty_lock_inbox() for _ in range(num_workers)]
        self._seed_initial(initial, self._inboxes)
        #: Misra black flags, coordinator-maintained: a worker blackens
        #: when it executes updates or is routed any message, and the
        #: token clears the flag at visit time.
        self._black = [True] * num_workers
        self._token = MisraToken(num_workers)
        self._total_updates = 0
        self._rounds = 0
        self._converged = False
        token_hops = 0
        tmp_root: Optional[str] = None
        launch_seconds = 0.0
        try:
            if self.snapshot_every is not None:
                root = (
                    resume_from if resume_from is not None
                    else self.snapshot_dir
                )
                if root is None:
                    root = tmp_root = tempfile.mkdtemp(prefix="repro-ckpt-")
                self._ckpt = CheckpointManager(root, num_workers)
                self._cadence = SnapshotCadence(
                    self.snapshot_every, num_workers
                )
            self._plane = provision_plane(
                self.transport,
                self.graph,
                num_workers,
                self.use_plane,
                self._plane_ring_cap,
            )
            self._shared_blob = encode_shared_init(self._worker_init(0))
            self.transport.launch([
                encode_worker(w, self._shared_blob)
                for w in range(num_workers)
            ])
            launch_seconds = sw.elapsed()
            if self._ckpt is not None:
                if resume_from is not None:
                    with Stopwatch(self._rec, "recover") as rsw:
                        _sid, meta, journals = self._ckpt.latest_state()
                        self._restore_cluster(meta, journals)
                    self._cadence.mark(self._rounds, rsw.end)
                    self._resume_seconds = rsw.seconds
                else:
                    self._baseline_snapshot()
            failure: Optional[WorkerFailure] = None
            while True:
                try:
                    if failure is not None:
                        exc, failure = failure, None
                        self._recover_from(exc)
                    self._run_loop()
                    token_hops += self._token.hops
                    counts = self._collect_and_write_back(self._inboxes)
                    break
                except WorkerFailure as exc:
                    if self._ckpt is None:
                        raise
                    token_hops += self._token.hops
                    self._recoveries += 1
                    if self._recoveries > self.max_recoveries:
                        raise
                    failure = exc
        finally:
            self.transport.shutdown()
            if tmp_root is not None:
                shutil.rmtree(tmp_root, ignore_errors=True)
        wall = sw.stop()
        return self._build_result(counts, wall, launch_seconds, token_hops)

    def _build_result(
        self,
        counts: Dict[VertexId, int],
        wall: float,
        launch_seconds: float,
        token_hops: int,
    ) -> RuntimeRunResult:
        """Assemble the run summary — shared by :meth:`run` and the
        serving-mode teardown (:meth:`close_service`)."""
        transport = self.transport
        result = RuntimeRunResult(
            num_updates=self._total_updates,
            updates_per_vertex=counts,
            converged=self._converged,
            globals=self.globals.snapshot(),
            sweeps=0,
            wall_seconds=wall,
            launch_seconds=launch_seconds,
            num_workers=self.num_workers,
            backend=transport.name,
            updates_per_worker=dict(self.updates_per_worker),
            rounds=transport.rounds_completed,
            bytes_on_pipe=transport.bytes_sent + transport.bytes_received,
            data_plane=self._plane.spec.kind if self._plane else None,
        )
        result.extra["token_hops"] = token_hops
        result.extra["pipeline_window"] = self.pipeline_window
        result.extra.update(transport.net_counters())
        if self._ckpt is not None:
            result.extra["snapshots"] = self._ckpt.snapshots_taken
            result.extra["snapshot_bytes"] = self._ckpt.bytes_written
            result.extra["snapshots_rejected"] = self._ckpt.snapshots_rejected
            result.extra["recoveries"] = self._recoveries
            result.extra["recovery_seconds"] = self._recovery_seconds
            if self._resume_seconds is not None:
                result.extra["resume_seconds"] = self._resume_seconds
        if self.trace:
            result.extra["trace"] = self._trace_entries
        collector = self._collector
        if collector is not None:
            spec = self._plane.spec if self._plane is not None else None
            result.telemetry = collector.finalize(
                transport.clock_offsets,
                {
                    "engine": "locking",
                    "backend": transport.name,
                    "num_workers": self.num_workers,
                    "data_plane": spec.kind if spec is not None else None,
                    "ring_v": spec.ring_v if spec is not None else 0,
                    "ring_e": spec.ring_e if spec is not None else 0,
                    "pipeline_window": self.pipeline_window,
                },
            )
        return result

    def _run_loop(self) -> None:
        """Round until the token converges or a stop condition (resumable)."""
        num_workers = self.num_workers
        while True:
            if (
                self.max_updates is not None
                and self._total_updates >= self.max_updates
            ):
                break
            if (
                self.max_rounds is not None
                and self._rounds >= self.max_rounds
            ):
                break
            if (
                self._cadence is not None
                and self._async is None
                and self._cadence.due(self._rounds, time.perf_counter())
            ):
                if self.snapshot_mode == "sync":
                    self._sync_snapshot()
                    continue  # re-check stop conditions post-drain
                self._async_begin()
            budget = self.round_budget
            if self.max_updates is not None:
                budget = min(budget, self.max_updates - self._total_updates)
            extra: Dict[str, Any] = {"round": self._rounds, "budget": budget}
            async_state = self._async
            finishing = False
            if async_state is not None:
                if not async_state["begun"]:
                    # Round 1 of the handshake: every worker becomes an
                    # initiator for its owned partition.
                    async_state["begun"] = True
                    extra["snap"] = {
                        "id": async_state["id"],
                        "root": self._ckpt.dir.root,
                    }
                elif async_state["ready"]:
                    finishing = True
                    extra["snap_finish"] = True
                else:
                    # Keep nudging: a worker whose snapshot work drained
                    # seeds its next unmarked owned vertex (disconnected
                    # components never hear about the snapshot from a
                    # neighbor).
                    extra["snap_seed"] = True
            replies = self._send_round("lstep", extra, self._inboxes)
            self._rounds += 1
            self._inboxes = [empty_lock_inbox() for _ in range(num_workers)]
            reported_idle = []
            snap_done = True
            ssched_any = False
            snap_bytes = 0
            snap_crcs: Dict[int, int] = {}
            for w, (half, body) in enumerate(replies):
                executed = body["executed"]
                if executed:
                    self._total_updates += executed
                    self.updates_per_worker[w] += executed
                    self._black[w] = True
                reported_idle.append(body["idle"])
                if body.get("ssched"):
                    ssched_any = True
                snap_done = snap_done and body.get("snap_done", False)
                snap_bytes += body.get("snap_bytes") or 0
                if body.get("snap_crc") is not None:
                    snap_crcs[w] = body["snap_crc"]
                self._route(w, half, body, self._inboxes, self._black)
            if async_state is not None:
                if finishing:
                    self._async_finalize(snap_bytes, snap_crcs)
                elif snap_done and not ssched_any:
                    # Every worker marked all it owns, holds no snapshot
                    # scope, and routed no propagation this round — the
                    # cut is complete; next round closes the handshake.
                    async_state["ready"] = True
                # No termination check while a snapshot is in flight:
                # workers report busy anyway, and the token must not
                # witness the snapshot's own traffic as a white circuit.
                continue
            black = self._black
            inboxes = self._inboxes
            # The token's idle view must treat an undelivered inbox
            # as "busy": blackening-on-routing alone is not enough,
            # because one advance() call may clear the flag and
            # complete a second, white circuit before the message is
            # ever delivered. A worker is idle for termination
            # purposes only when it reported idle AND nothing is
            # about to be delivered to it — then a full white
            # circuit really does witness global quiescence.
            idle = [
                reported_idle[w]
                and all(not value for value in inboxes[w].values())
                for w in range(num_workers)
            ]

            def take_black(w: int) -> bool:
                was = black[w]
                black[w] = False
                return was

            if self._token.advance(idle, take_black):
                assert _inboxes_quiet(inboxes)
                self._converged = True
                break

    # ------------------------------------------------------------------
    # Serving mode (repro.serve): the resident graph as a service.
    # ------------------------------------------------------------------
    def open_service(self, initial: Iterable = ()) -> None:
        """Launch the cluster and park it at the barrier (serving mode).

        The alternative to :meth:`run` for a long-lived deployment:
        setup, plane provisioning, launch, and the baseline snapshot
        happen exactly as in a run, but instead of rounding to
        quiescence the engine returns with every worker blocked on its
        pipe waiting for the next command — the "park at barrier" state.
        From here the owner alternates :meth:`service_barrier` /
        :meth:`service_schedule` (client traffic) with
        :meth:`service_pump_round` (one locking round of background
        computation) and finally :meth:`close_service`. Single-use, like
        :meth:`run`; the two entry points are mutually exclusive.
        """
        if self._ran:
            raise EngineError(
                "runtime engine instances are single-use (worker "
                "processes are torn down at run end); build a new one"
            )
        self._ran = True
        self._serving = True
        collector = self._collector
        rec = collector.coordinator if collector is not None else None
        self.transport.obs = rec
        self._service_sw = Stopwatch(rec, "run")
        num_workers = self.num_workers
        self._inboxes = [empty_lock_inbox() for _ in range(num_workers)]
        self._seed_initial(initial, self._inboxes)
        self._black = [True] * num_workers
        self._token = MisraToken(num_workers)
        self._token_hops = 0
        self._total_updates = 0
        self._rounds = 0
        self._converged = False
        self._trace_entries = []
        self._service_tmp_root: Optional[str] = None
        self._service_launch_seconds = 0.0
        try:
            if self.snapshot_every is not None:
                root = self.snapshot_dir
                if root is None:
                    root = self._service_tmp_root = tempfile.mkdtemp(
                        prefix="repro-ckpt-"
                    )
                self._ckpt = CheckpointManager(root, num_workers)
                self._cadence = SnapshotCadence(
                    self.snapshot_every, num_workers
                )
            self._plane = provision_plane(
                self.transport,
                self.graph,
                num_workers,
                self.use_plane,
                self._plane_ring_cap,
            )
            self._shared_blob = encode_shared_init(self._worker_init(0))
            self.transport.launch([
                encode_worker(w, self._shared_blob)
                for w in range(num_workers)
            ])
            self._service_launch_seconds = self._service_sw.elapsed()
            if self._ckpt is not None:
                self._baseline_snapshot()
        except Exception:
            self.transport.shutdown()
            if self._service_tmp_root is not None:
                shutil.rmtree(self._service_tmp_root, ignore_errors=True)
            raise

    def service_barrier(
        self,
        writes: Optional[Iterable[Tuple[VertexId, Any]]] = None,
        reads: Optional[Iterable[Tuple[Any, VertexId, bool]]] = None,
    ) -> Dict[Any, Dict[str, Any]]:
        """One serve barrier: writes at their owners, version-tagged reads.

        ``writes`` are ``(vertex, value)`` mutations, each applied at
        the vertex's owner (version bump + dirty mark, so the change
        propagates to ghost holders through the normal routed wire);
        ``reads`` are ``(request_id, vertex, want_scope)`` and return
        ``{request_id: snapshot}`` from
        :meth:`~repro.runtime.shard.CSRShardStore.read_snapshot`. Both
        happen inside one command on every worker — reads observe every
        write of the same barrier and never a half-applied update.

        Pending data-plane inbox entries are delivered with this
        barrier (ring descriptors written in command R must be consumed
        in command R+1 or go stale under the double-buffered ring);
        lock-protocol traffic stays queued for the next ``lstep``,
        which is safe — data may arrive earlier than a grant, never
        later.
        """
        num_workers = self.num_workers
        owner = self.owner
        writes_by: List[List[Tuple[VertexId, Any]]] = [
            [] for _ in range(num_workers)
        ]
        reads_by: List[List[Tuple[Any, VertexId, bool]]] = [
            [] for _ in range(num_workers)
        ]
        for vid, value in writes or ():
            writes_by[owner[vid]].append((vid, value))
        for req_id, vid, want_scope in reads or ():
            reads_by[owner[vid]].append((req_id, vid, want_scope))
        inboxes = self._inboxes
        messages = []
        for w in range(num_workers):
            payload: Dict[str, Any] = {}
            inbox = inboxes[w]
            attach: Dict[str, Any] = {}
            if inbox["plane"]:
                attach["plane"] = inbox["plane"]
                inbox["plane"] = []
            if inbox["data"] is not None:
                attach["data"] = inbox["data"]
                inbox["data"] = None
            if attach:
                payload["inbox"] = attach
            if writes_by[w]:
                payload["writes"] = writes_by[w]
            if reads_by[w]:
                payload["reads"] = reads_by[w]
            messages.append(("serve", payload))
        replies = drain_telemetry(
            self.transport.round(messages), self._collector
        )
        self._rounds += 1
        results: Dict[Any, Dict[str, Any]] = {}
        black = self._black
        for w, (half, body) in enumerate(replies):
            served = body.get("serve")
            if served:
                results.update(served)
            if writes_by[w]:
                black[w] = True
            self._route(w, half, body, inboxes, black)
        return results

    def service_schedule(self, schedule: Iterable) -> int:
        """Inject dynamic updates (the serving write path's follow-up).

        Routes ``(vertex, priority)`` pairs into their owners' inboxes
        exactly like the initial schedule of a run and blackens the
        receivers so the termination detector knows new work exists.
        Returns the number of injected tasks; they execute on subsequent
        :meth:`service_pump_round` calls.
        """
        pairs = list(normalize_schedule(schedule, graph=self.graph))
        if not pairs:
            return 0
        index_of = self._csr.index_of
        owner_idx = self._owner_idx
        by_worker: Dict[int, Tuple[List[int], List[float]]] = {}
        for vertex, prio in pairs:
            idx = index_of[vertex]
            indices, priorities = by_worker.setdefault(
                int(owner_idx[idx]), ([], [])
            )
            indices.append(idx)
            priorities.append(prio)
        for w, (indices, priorities) in by_worker.items():
            prio_arr = (
                np.asarray(priorities, dtype=np.float64)
                if any(priorities)
                else None
            )
            self._inboxes[w]["sched"].append(
                (np.asarray(indices, dtype=np.int32), prio_arr)
            )
            self._black[w] = True
        return len(pairs)

    def service_pump_round(self) -> bool:
        """One locking round of background work; ``True`` at quiescence.

        The serving twin of one :meth:`_run_loop` iteration: run a
        budgeted ``lstep``, route replies, advance the Misra token.
        Returns ``True`` when a full white circuit has witnessed global
        quiescence — the cluster is parked and no round need run until
        new work arrives. Injected work after convergence restarts the
        detector (fresh token; the black flags are already set by
        :meth:`service_schedule` / :meth:`service_barrier` routing).
        Snapshot cadence fires here too, always via the synchronous
        drain-then-journal path — serving interleaves rounds with
        barriers, so the paper's async snapshot machinery stays a
        run-mode feature.
        """
        num_workers = self.num_workers
        if self._token.terminated:
            if _inboxes_quiet(self._inboxes) and not any(self._black):
                return True
            self._token_hops += self._token.hops
            self._token = MisraToken(num_workers)
        if (
            self._cadence is not None
            and self._cadence.due(self._rounds, time.perf_counter())
        ):
            self._sync_snapshot()
        extra: Dict[str, Any] = {
            "round": self._rounds,
            "budget": self.round_budget,
        }
        replies = self._send_round("lstep", extra, self._inboxes)
        self._rounds += 1
        self._inboxes = [empty_lock_inbox() for _ in range(num_workers)]
        reported_idle = []
        for w, (half, body) in enumerate(replies):
            executed = body["executed"]
            if executed:
                self._total_updates += executed
                self.updates_per_worker[w] += executed
                self._black[w] = True
            reported_idle.append(body["idle"])
            self._route(w, half, body, self._inboxes, self._black)
        black = self._black
        inboxes = self._inboxes
        # Same idle discipline as _run_loop: an undelivered inbox keeps
        # its receiver busy in the token's eyes.
        idle = [
            reported_idle[w]
            and all(not value for value in inboxes[w].values())
            for w in range(num_workers)
        ]

        def take_black(w: int) -> bool:
            was = black[w]
            black[w] = False
            return was

        if self._token.advance(idle, take_black):
            assert _inboxes_quiet(inboxes)
            return True
        return False

    def close_service(self, snapshot: bool = True) -> RuntimeRunResult:
        """Graceful drain: quiesce, snapshot, collect, tear down.

        Pumps rounds until the termination detector witnesses global
        quiescence (every accepted write's scheduled work completes),
        takes one final synchronous snapshot through the PR 6 checkpoint
        path when snapshots are configured (``snapshot=False`` skips
        it), then collects the shards back into the parent graph and
        shuts the transport down. Returns the same
        :class:`RuntimeRunResult` a run would.
        """
        if not getattr(self, "_serving", False):
            raise EngineError(
                "no open service (open_service was never called, or the "
                "service is already closed)"
            )
        self._serving = False
        counts: Dict[VertexId, int] = {}
        try:
            drains = 0
            while not self.service_pump_round():
                drains += 1
                if drains > _MAX_DRAIN_ROUNDS:
                    raise SnapshotError(
                        "serving drain failed to reach quiescence within "
                        f"{_MAX_DRAIN_ROUNDS} rounds"
                    )
            self._converged = True
            if snapshot and self._ckpt is not None:
                self._sync_snapshot()
            counts = self._collect_and_write_back(self._inboxes)
        finally:
            self.transport.shutdown()
            if self._service_tmp_root is not None:
                shutil.rmtree(self._service_tmp_root, ignore_errors=True)
        wall = self._service_sw.stop()
        self._token_hops += self._token.hops
        return self._build_result(
            counts, wall, self._service_launch_seconds, self._token_hops
        )

    # ------------------------------------------------------------------
    # Snapshots and recovery (Sec. 4.3).
    # ------------------------------------------------------------------
    def _snapshot_meta(self, mode: str) -> Dict[str, Any]:
        """Coordinator progress record stored beside the journals.

        Unlike the chromatic engine there is no global task mask — each
        worker journals its own scheduler, so meta carries only the
        round clock and globals."""
        return {
            "engine": "locking",
            "mode": mode,
            "rounds": self._rounds,
            "globals": self.globals.snapshot(),
        }

    def _baseline_snapshot(self) -> None:
        """Journal the initial state, coordinator-side (no rounds)."""
        with Stopwatch(self._rec, "snap") as sw:
            journals = baseline_journals(
                self.graph, self.owner, self.num_workers
            )
            for w, journal in enumerate(journals):
                journal["sched"] = self._initial_sched.get(w, [])
            self._ckpt.write(
                self._ckpt.next_id(), journals, self._snapshot_meta("sync")
            )
        self._cadence.mark(self._rounds, sw.end, cost=sw.seconds)

    def _sync_snapshot(self) -> None:
        """Synchronous snapshot: drain to quiescence, then journal.

        Drain rounds run the pipeline with a full budget but admit no
        new scopes (``drain=True``), so in-flight chains complete, their
        unlocks/grants/data flush through the routed inboxes, and the
        cluster reaches the halted-and-delivered state the paper's
        synchronous snapshot assumes. Updates executed while draining
        are real work and count normally.
        """
        sw = Stopwatch(self._rec, "snap")
        num_workers = self.num_workers
        drains = 0
        while True:
            extra = {
                "round": self._rounds,
                "budget": self.round_budget,
                "drain": True,
            }
            replies = self._send_round("lstep", extra, self._inboxes)
            self._rounds += 1
            self._inboxes = [empty_lock_inbox() for _ in range(num_workers)]
            inflight = 0
            for w, (half, body) in enumerate(replies):
                executed = body["executed"]
                if executed:
                    self._total_updates += executed
                    self.updates_per_worker[w] += executed
                    self._black[w] = True
                inflight += body.get("inflight", 0)
                self._route(w, half, body, self._inboxes, self._black)
            if inflight == 0 and _inboxes_quiet(self._inboxes):
                break
            drains += 1
            if drains > _MAX_DRAIN_ROUNDS:
                raise SnapshotError(
                    "lock pipeline failed to drain to quiescence for a "
                    f"synchronous snapshot within {_MAX_DRAIN_ROUNDS} "
                    "rounds"
                )
        snapshot_id = self._ckpt.next_id()
        journals = self._send_round("checkpoint", {}, self._inboxes)
        self._rounds += 1
        self._inboxes = [empty_lock_inbox() for _ in range(num_workers)]
        self._ckpt.write(
            snapshot_id, journals, self._snapshot_meta("sync")
        )
        sw.stop()
        self._cadence.mark(self._rounds, sw.end, cost=sw.seconds)

    def _async_begin(self) -> None:
        self._async = {
            "id": self._ckpt.next_id(),
            "begun": False,
            "ready": False,
            "watch": Stopwatch(self._rec, "snap"),
        }

    def _async_finalize(
        self, snap_bytes: int, snap_crcs: Optional[Dict[int, int]] = None
    ) -> None:
        """Close the handshake: workers wrote their own journals this
        round; verify, add meta + manifest (from the CRCs each worker
        reported for its own journal), mark complete."""
        state = self._async
        self._async = None
        self._ckpt.finalize_async(
            state["id"], self._snapshot_meta("async"), crcs=snap_crcs
        )
        # Worker-side journal bytes aren't visible to finalize_async;
        # fold the reported sizes into the coordinator's accounting.
        self._ckpt.bytes_written += snap_bytes
        sw = state["watch"]
        sw.stop()
        self._cadence.mark(self._rounds, sw.end, cost=sw.seconds)

    def _recover_from(self, failure: WorkerFailure) -> None:
        """Respawn the dead worker; roll the whole cluster back.

        Counts reset from the journals (their sum is the snapshot's
        exact update total), the termination detector restarts black,
        and any half-run async snapshot is abandoned — its COMPLETE
        marker never existed, so it was never a recovery point.
        """
        sw = Stopwatch(self._rec, "recover")
        if self.recovery_backoff:
            time.sleep(self.recovery_backoff * self._recoveries)
        self.transport.recover(
            failure.worker_id,
            encode_worker(failure.worker_id, self._shared_blob),
        )
        _snapshot_id, meta, journals = self._ckpt.latest_state()
        self._restore_cluster(meta, journals)
        sw.stop()
        self._cadence.mark(self._rounds, sw.end)
        self._recovery_seconds += sw.seconds

    def _restore_cluster(
        self, meta: Dict[str, Any], journals: List[Dict[str, Any]]
    ) -> None:
        """Send one verified snapshot's state to every worker and reset
        the coordinator to match — shared by mid-run recovery and
        ``run(resume_from=...)`` cold restarts."""
        merged = merge_journals(journals)
        globals_items = list(meta.get("globals", {}).items())
        messages: List[Tuple[str, Dict[str, Any]]] = []
        for w in range(self.num_workers):
            messages.append((
                "restore",
                {
                    "state": merged,
                    "counts": journals[w].get("counts"),
                    "sched": journals[w].get("sched") or [],
                    "globals": globals_items,
                },
            ))
        drain_telemetry(self.transport.round(messages), self._collector)
        self._rounds = meta["rounds"]
        self._total_updates = 0
        for w, journal in enumerate(journals):
            count = sum((journal.get("counts") or {}).values())
            self.updates_per_worker[w] = count
            self._total_updates += count
        self.globals = GlobalValues(meta.get("globals"))
        self._black = [True] * self.num_workers
        self._token = MisraToken(self.num_workers)
        self._async = None
        self._inboxes = [empty_lock_inbox() for _ in range(self.num_workers)]

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def _seed_initial(
        self, initial: Iterable, inboxes: List[Dict[str, Any]]
    ) -> None:
        index_of = self._csr.index_of
        owner_idx = self._owner_idx
        by_worker: Dict[int, Tuple[List[int], List[float]]] = {}
        for vertex, prio in normalize_schedule(initial, graph=self.graph):
            idx = index_of[vertex]
            indices, priorities = by_worker.setdefault(
                int(owner_idx[idx]), ([], [])
            )
            indices.append(idx)
            priorities.append(prio)
        #: Per-worker ``(index, priority)`` pairs of the initial
        #: schedule, journaled by the baseline snapshot so a recovery
        #: before the first real snapshot restarts the run exactly.
        self._initial_sched = {
            w: list(zip(indices, priorities))
            for w, (indices, priorities) in by_worker.items()
        }
        for w, (indices, priorities) in by_worker.items():
            prio_arr = (
                np.asarray(priorities, dtype=np.float64)
                if any(priorities)
                else None
            )
            inboxes[w]["sched"].append(
                (np.asarray(indices, dtype=np.int32), prio_arr)
            )

    def _route(
        self,
        src: int,
        half: int,
        body: Dict[str, Any],
        inboxes: List[Dict[str, Any]],
        black: List[bool],
    ) -> None:
        """Deliver one worker's outgoing batches into the next inboxes.

        Every routed message blackens its receiver (Misra: receiving
        work invalidates the token's circuit) — including pure data
        pushes, which is conservative but always safe.
        """
        lock = body.get("lock")
        if lock:
            for dst, arr in lock.items():
                inboxes[dst]["lock"].append((src, arr))
                black[dst] = True
        grant = body.get("grant")
        if grant:
            for dst, arr in grant.items():
                inboxes[dst]["grant"].append(arr)
                black[dst] = True
        unlock = body.get("unlock")
        if unlock:
            for dst, arr in unlock.items():
                inboxes[dst]["unlock"].append(arr)
                black[dst] = True
        sched = body.get("sched")
        if sched:
            for dst, pair in sched.items():
                inboxes[dst]["sched"].append(pair)
                black[dst] = True
        ssched = body.get("ssched")
        if ssched:
            for dst, arr in ssched.items():
                inboxes[dst]["ssched"].append(arr)
                black[dst] = True
        plane = body.get("plane")
        if plane:
            for dst, run in plane.items():
                inboxes[dst]["plane"].append(
                    (src, half, run[0], run[1], run[2], run[3])
                )
                black[dst] = True
        data = body.get("data")
        if data:
            for dst, batch in data.items():
                inbox = inboxes[dst]
                if inbox["data"] is None:
                    inbox["data"] = batch
                else:
                    inbox["data"].extend(batch)
                black[dst] = True

    def _send_round(
        self, tag: str, extra: Dict[str, Any], inboxes: List[Dict]
    ) -> List[Any]:
        """One full barrier: send every worker its inbox, collect all."""
        messages = []
        for inbox in inboxes:
            payload = dict(extra)
            payload["inbox"] = {
                key: value for key, value in inbox.items() if value
            }
            messages.append((tag, payload))
        # Single reply funnel: piggybacked telemetry batches are
        # stripped here before any caller inspects the replies.
        return drain_telemetry(self.transport.round(messages), self._collector)

    # ------------------------------------------------------------------
    # Launch / teardown plumbing.
    # ------------------------------------------------------------------
    def _worker_init(self, worker_id: int) -> LockWorkerInit:
        return LockWorkerInit(
            worker_id=worker_id,
            num_workers=self.num_workers,
            graph=self.graph,
            owner=self.owner,
            consistency=self.consistency,
            program=self.program,
            scheduler=self.scheduler,
            pipeline_window=self.pipeline_window,
            round_budget=self.round_budget,
            initial_globals=self._initial_globals,
            trace=self.trace,
            plane=self._plane.spec if self._plane is not None else None,
            telemetry=self.telemetry,
        )

    def _collect_and_write_back(
        self, inboxes: List[Dict]
    ) -> Dict[VertexId, int]:
        """Final barrier: flush residual ghost state, gather shards.

        Same discipline as the chromatic engine: the collect command
        carries each worker's residual inbox so in-flight ghost entries
        land before the shard is read; plane columns are read straight
        out of the segments.
        """
        replies = self._send_round("collect", {}, inboxes)
        if self._plane is not None:
            write_back_plane_columns(self.graph, self._plane, self._owner_idx)
        self._trace_entries: List[Tuple] = []
        if self.trace:
            for w, reply in enumerate(replies):
                for (round_no, vertex, reads, writes) in reply.get(
                    "trace", ()
                ):
                    self._trace_entries.append(
                        (w, round_no, vertex, reads, writes)
                    )
        return apply_collect_replies(self.graph, replies)
