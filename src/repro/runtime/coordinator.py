"""The coordinator lifecycle shared by both runtime engines.

The paper runs its two engines — chromatic (Sec. 4.2.1) and pipelined
locking (Sec. 4.2.2) — on one distributed data graph with one snapshot
and recovery story (Sec. 4.3). :class:`RuntimeCoordinator` is that
shared half, written once: construction (transport, ownership plan,
snapshot fields, telemetry collector), the launch sequence behind both
:meth:`~RuntimeCoordinator.run` and
:meth:`~RuntimeCoordinator.open_service`, the bounded respawn-and-
rollback retry loop, baseline snapshots and cluster restore, the round
funnel, the serve barrier's shared half, the final collect write-back,
and the run summary.

An engine subclass supplies only its round policy — the chromatic
engine's color-merged sweeps, the locking engine's lock pipeline and
Misra token — plus a handful of small hooks:

* ``_empty_inbox`` / ``_worker_init(worker_id)`` — the engine's
  routed-inbox factory and worker launch state;
* ``_start_state(initial)`` — reset progress state, seed the schedule;
* ``_progress`` — the snapshot cadence counter (sweeps or rounds);
* ``_snapshot_meta()`` / ``_baseline_journals()`` — snapshot records;
* ``_rollback(meta, journals)`` — reset coordinator state to a
  snapshot, returning each worker's restored schedule;
* ``_run_loop()`` / ``_take_snapshot()`` / ``service_pump_round()`` —
  the round policy itself;
* ``_result_extra()`` / ``_collected(replies)`` — result extras.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.sync import GlobalValues
from repro.distributed.deploy import OwnershipPlan, plan_ownership
from repro.errors import EngineError, SnapshotError
from repro.obs.events import Stopwatch
from repro.obs.timeline import RunTelemetry, TimelineCollector, drain_telemetry
from repro.runtime.checkpoint import (
    JOURNAL_FORMAT,
    CheckpointManager,
    SnapshotCadence,
    check_snapshot_compatible,
    merge_journals,
    structure_fingerprint,
)
from repro.runtime.plane import plane_spec_for
from repro.runtime.program import check_picklable
from repro.runtime.shard import gather_journal, scatter_rows
from repro.runtime.transport import Transport, WorkerFailure, make_transport
from repro.runtime.worker import encode_worker

#: Rounds a drain to quiescence (a locking engine's synchronous
#: snapshot, or a service's graceful close) may spend before giving up.
#: Every drain round strictly shrinks in-flight work (no new scopes are
#: admitted), so hitting this means a protocol bug, not a slow pipeline.
_MAX_DRAIN_ROUNDS = 10_000


@dataclass
class RuntimeRunResult:
    """Summary of one real-process run.

    Mirrors :class:`~repro.core.engine.EngineResult` (same first four
    fields, so assertions port over) plus wall-clock and per-worker
    accounting — real seconds here, not simulated ones — and the
    communication counters the data plane and color-merged rounds exist
    to shrink: ``rounds`` (transport barriers), ``rounds_saved``
    (barriers elided by committed merges), ``bytes_on_pipe`` (pickled
    bytes crossing coordinator pipes, both directions).
    """

    num_updates: int
    updates_per_vertex: Dict[VertexId, int]
    converged: bool
    globals: Dict[str, Any] = field(default_factory=dict)
    sweeps: int = 0
    wall_seconds: float = 0.0
    launch_seconds: float = 0.0
    num_workers: int = 1
    backend: str = "inproc"
    updates_per_worker: Dict[int, int] = field(default_factory=dict)
    rounds: int = 0
    rounds_saved: int = 0
    bytes_on_pipe: int = 0
    data_plane: Optional[str] = None
    #: Assembled run timeline (:class:`repro.obs.timeline.RunTelemetry`)
    #: when the engine ran with ``telemetry=True``; ``None`` otherwise.
    telemetry: Optional[RunTelemetry] = None
    #: Engine-specific diagnostics (the locking engine parks its
    #: serializability trace and termination-token hops here, mirroring
    #: the simulated engines' ``DistributedRunResult.extra``).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def exec_seconds(self) -> float:
        """Wall time of execution proper, excluding worker launch.

        Launch (process start + the one-time pickled-structure ship) is
        the ingress phase of this backend; excluding it from throughput
        mirrors the simulated engines' ``include_load_time=False``
        default. Both components are reported, so nothing hides.
        """
        return max(self.wall_seconds - self.launch_seconds, 0.0)

    @property
    def updates_per_sec(self) -> float:
        """Real update throughput (0 for an instantaneous empty run)."""
        exec_seconds = self.exec_seconds
        if exec_seconds <= 0.0:
            return 0.0
        return self.num_updates / exec_seconds

    @property
    def rounds_per_sweep(self) -> float:
        """Average transport barriers per executed sweep."""
        if not self.sweeps:
            return 0.0
        return self.rounds / self.sweeps


def route_exchange(
    inboxes: List[Dict[str, Any]],
    src: int,
    half: int,
    plane: Optional[Dict[int, Any]],
    data: Optional[Dict[int, Any]],
) -> None:
    """Queue one worker's outgoing ghost exchange for delivery: ring
    descriptors and pickled overflow batches, per destination inbox."""
    if plane:
        for dst, run in plane.items():
            inboxes[dst]["plane"].append(
                (src, half, run[0], run[1], run[2], run[3])
            )
    if data:
        for dst, batch in data.items():
            inbox = inboxes[dst]
            if inbox["data"] is None:
                inbox["data"] = batch
            else:
                inbox["data"].extend(batch)


class RuntimeCoordinator:
    """Launch, checkpoint, recovery, serving surface and collect for a
    runtime engine; subclasses add the round policy (see the module
    docstring for the hooks)."""

    #: Telemetry ``engine`` label.
    _ENGINE = ""
    #: Constructor stop conditions; serving mode rejects every one.
    _STOP_CONDITIONS: Tuple[str, ...] = ()
    #: Engine attributes copied into the telemetry meta record.
    _TELEMETRY_FIELDS: Tuple[str, ...] = ()
    #: Progress fields reported by engines that track them.
    _sweeps = 0
    rounds_saved = 0

    def __init__(
        self,
        graph: DataGraph,
        program: Any,
        *,
        num_workers: int,
        transport: Union[str, Transport],
        consistency: Consistency,
        partitioner: Any,
        assignment: Optional[Dict[VertexId, int]],
        atoms_per_worker: int,
        initial_globals: Optional[Dict[str, Any]],
        reply_timeout: Optional[float],
        use_plane: bool,
        plane_ring_cap: Optional[int],
        snapshot_every: Optional[Union[int, str]],
        snapshot_dir: Optional[str],
        max_recoveries: int,
        recovery_backoff: float,
        telemetry: bool,
    ) -> None:
        graph.require_finalized()
        if num_workers < 1:
            raise EngineError("num_workers must be >= 1")
        check_picklable(program)
        self.graph = graph
        self.program = program
        self.num_workers = num_workers
        self.transport = make_transport(
            transport, num_workers, reply_timeout=reply_timeout
        )
        self.consistency = consistency
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
        self.use_plane = use_plane
        self._plane_ring_cap = plane_ring_cap
        # The compiled numbering is canonical across processes, so
        # scheduling state and ownership resolve to flat arrays once.
        self._csr = graph.compiled
        self._owner_idx = self.plan.owner_index
        self.updates_per_worker: Dict[int, int] = {
            w: 0 for w in range(num_workers)
        }
        self._plane = None
        self._ran = False
        self._serving = False
        # Fault tolerance (Sec. 4.3): snapshot cadence + bounded
        # respawn/rollback recovery. Disabled unless snapshot_every is
        # set — without a snapshot there is nothing to recover to.
        self.snapshot_every = snapshot_every
        self.snapshot_dir = snapshot_dir
        self.max_recoveries = max_recoveries
        self.recovery_backoff = recovery_backoff
        self._ckpt: Optional[CheckpointManager] = None
        self._cadence: Optional[SnapshotCadence] = None
        self._shared_blob: Optional[bytes] = None
        self._recoveries = 0
        self._recovery_seconds = 0.0
        self._resume_seconds: Optional[float] = None
        # Observability (observe, never steer): workers piggyback span
        # batches on round replies; the collector assembles the timeline
        # surfaced as RuntimeRunResult.telemetry.
        self.telemetry = telemetry
        self._collector: Optional[TimelineCollector] = (
            TimelineCollector(num_workers) if telemetry else None
        )

    @property
    def _rec(self):
        """Coordinator span recorder, or ``None`` when telemetry is off."""
        collector = self._collector
        return collector.coordinator if collector is not None else None

    def _fresh_inboxes(self) -> List[Dict[str, Any]]:
        return [self._empty_inbox() for _ in range(self.num_workers)]

    # ------------------------------------------------------------------
    # Lifecycle: run, or open/close a service.
    # ------------------------------------------------------------------
    def run(
        self,
        initial: Iterable = (),
        resume_from: Optional[Any] = None,
    ) -> RuntimeRunResult:
        """Execute to quiescence (or a stop condition); single-use.

        With snapshots on, a :class:`WorkerFailure` mid-run does not
        abort: the dead worker is respawned through the transport, every
        worker (survivors included — their ghosts must roll back) is
        restored from the latest complete snapshot, the coordinator's
        own progress state resets from the snapshot's meta record, and
        execution resumes — at most ``max_recoveries`` times.

        ``resume_from`` is a snapshot root from an earlier (crashed)
        run: instead of a baseline snapshot, the freshly-launched
        cluster is restored from the newest snapshot there that passes
        integrity verification, and new snapshots continue in the same
        directory. Requires ``snapshot_every``.
        """
        self._launch(initial, resume_from=resume_from)
        try:
            failure: Optional[WorkerFailure] = None
            while True:
                try:
                    if failure is not None:
                        exc, failure = failure, None
                        self._recover_from(exc)
                    self._run_loop()
                    counts = self._collect_and_write_back()
                    break
                except WorkerFailure as exc:
                    if self._ckpt is None:
                        raise
                    self._recoveries += 1
                    if self._recoveries > self.max_recoveries:
                        raise
                    failure = exc
        finally:
            self._teardown()
        return self._build_result(counts)

    def open_service(self, initial: Iterable = ()) -> None:
        """Launch the cluster and park it at the barrier (serving mode).

        The alternative to :meth:`run` for a long-lived deployment
        (:class:`repro.serve.GraphService`): setup, plane provisioning,
        launch, and the baseline snapshot happen exactly as in a run,
        but instead of executing to quiescence the engine returns with
        every worker blocked waiting for its next command. From here the
        owner alternates ``service_barrier`` / ``service_schedule``
        (client traffic) with ``service_pump_round`` (background
        computation) and finally :meth:`close_service`. Single-use and
        mutually exclusive with :meth:`run`. Stop conditions are a
        run-mode feature: a service pumps to quiescence between bursts,
        so an engine built with any is rejected here.
        """
        self._launch(initial, serving=True)
        self._serving = True

    def close_service(self, snapshot: bool = True) -> RuntimeRunResult:
        """Graceful drain: quiesce, snapshot, collect, tear down.

        Pumps until the engine reports quiescence (every accepted
        write's scheduled work completes), takes one final snapshot when
        snapshots are configured (``snapshot=False`` skips it), then
        collects the shards back into the parent graph and shuts the
        transport down. Returns the same :class:`RuntimeRunResult` a run
        would.
        """
        if not self._serving:
            raise EngineError(
                "no open service (open_service was never called, or the "
                "service is already closed)"
            )
        self._serving = False
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
                self._take_snapshot()
            counts = self._collect_and_write_back()
        finally:
            self._teardown()
        return self._build_result(counts)

    def _launch(
        self,
        initial: Iterable,
        resume_from: Optional[Any] = None,
        serving: bool = False,
    ) -> None:
        """The one setup sequence behind :meth:`run` and
        :meth:`open_service`: checks, checkpoint root, plane, launch,
        then the baseline snapshot (or the ``resume_from`` restore). On
        any failure the transport is shut down and a temporary
        checkpoint root removed before the error propagates."""
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
        if serving:
            stops = [
                name for name in self._STOP_CONDITIONS
                if getattr(self, name) is not None
            ]
            if stops:
                raise EngineError(
                    "serving mode pumps to quiescence between bursts; "
                    f"{'/'.join(stops)} stop conditions would park the "
                    "service short of convergence forever"
                )
        self._ran = True
        rec = self._rec
        self.transport.obs = rec
        self._sw = Stopwatch(rec, "run")
        self._inboxes = self._fresh_inboxes()
        self._total_updates = 0
        self._converged = False
        self._start_state(initial)
        self._tmp_root: Optional[str] = None
        self._launch_seconds = 0.0
        try:
            if self.snapshot_every is not None:
                root = (
                    resume_from if resume_from is not None
                    else self.snapshot_dir
                )
                if root is None:
                    root = self._tmp_root = tempfile.mkdtemp(
                        prefix="repro-ckpt-"
                    )
                self._ckpt = CheckpointManager(root, self.num_workers)
                self._cadence = SnapshotCadence(
                    self.snapshot_every, self.num_workers
                )
            self._provision_plane()
            # The graph-bearing shared state is pickled exactly once;
            # each worker's payload wraps its id around that one blob
            # (see _encoded_inits), so launch serialization is
            # O(structure), not O(workers x structure) — and the cached
            # blob respawns dead workers during recovery.
            self.transport.launch(self._encoded_inits())
            self._launch_seconds = self._sw.elapsed()
            if self._ckpt is not None:
                if resume_from is not None:
                    with Stopwatch(rec, "recover") as rsw:
                        _sid, meta, journals = self._ckpt.latest_state()
                        self._restore_cluster(meta, journals)
                    self._cadence.mark(self._progress, rsw.end)
                    self._resume_seconds = rsw.seconds
                else:
                    self._baseline_snapshot()
        except BaseException:
            self._teardown()
            raise

    def _teardown(self) -> None:
        """Stop the workers; drop a temporary checkpoint root."""
        self.transport.shutdown()
        if self._tmp_root is not None:
            shutil.rmtree(self._tmp_root, ignore_errors=True)

    def _build_result(self, counts: Dict[VertexId, int]) -> RuntimeRunResult:
        """Assemble the run summary (after teardown, so ``wall`` spans
        the whole lifecycle)."""
        wall = self._sw.stop()
        transport = self.transport
        spec = self._plane.spec if self._plane is not None else None
        extra = self._result_extra()
        # Socket backends report their connection-supervision counters
        # (reconnects / replayed commands); pipe backends report none.
        extra.update(transport.net_counters())
        if self._ckpt is not None:
            extra["snapshots"] = self._ckpt.snapshots_taken
            extra["snapshot_bytes"] = self._ckpt.bytes_written
            extra["snapshots_rejected"] = self._ckpt.snapshots_rejected
            extra["recoveries"] = self._recoveries
            extra["recovery_seconds"] = self._recovery_seconds
            if self._resume_seconds is not None:
                extra["resume_seconds"] = self._resume_seconds
        telemetry = None
        collector = self._collector
        if collector is not None:
            meta = {
                "engine": self._ENGINE,
                "backend": transport.name,
                "num_workers": self.num_workers,
                "data_plane": spec.kind if spec is not None else None,
                "ring_v": spec.ring_v if spec is not None else 0,
                "ring_e": spec.ring_e if spec is not None else 0,
            }
            for name in self._TELEMETRY_FIELDS:
                meta[name] = getattr(self, name)
            telemetry = collector.finalize(transport.clock_offsets, meta)
        return RuntimeRunResult(
            num_updates=self._total_updates,
            updates_per_vertex=counts,
            converged=self._converged,
            globals=self.globals.snapshot(),
            sweeps=self._sweeps,
            wall_seconds=wall,
            launch_seconds=self._launch_seconds,
            num_workers=self.num_workers,
            backend=transport.name,
            updates_per_worker=dict(self.updates_per_worker),
            rounds=transport.rounds_completed,
            rounds_saved=self.rounds_saved,
            bytes_on_pipe=transport.bytes_sent + transport.bytes_received,
            data_plane=spec.kind if spec is not None else None,
            telemetry=telemetry,
            extra=extra,
        )

    def _result_extra(self) -> Dict[str, Any]:
        """Engine-specific ``result.extra`` entries."""
        return {}

    # ------------------------------------------------------------------
    # Snapshots and recovery (Sec. 4.3).
    # ------------------------------------------------------------------
    def _baseline_journals(self) -> List[Dict[str, Any]]:
        """Synthesize the launch-time snapshot from the coordinator's graph.

        Taken before any round runs, so it needs no transport traffic —
        and therefore cannot itself be lost to an injected or real
        worker death: a failure in the very first round always has a
        complete snapshot (the initial state) to recover to. Each
        worker's flat journal is gathered straight off the compiled
        columns by ownership. Versions are journaled as 0 so a restore
        force-resets survivors' version clocks along with their values
        — without that, post-recovery deliveries would be filtered as
        stale.
        """
        csr = self._csr
        owner_idx = self._owner_idx
        edge_owner = owner_idx[csr.edge_src_index]
        journals: List[Dict[str, Any]] = []
        for w in range(self.num_workers):
            v_index = np.nonzero(owner_idx == w)[0].astype(np.int32)
            e_slot = np.nonzero(edge_owner == w)[0].astype(np.int32)
            journal = gather_journal(
                csr.vdata, csr.edata, v_index, e_slot,
                np.zeros(v_index.size, dtype=np.int64),
                np.zeros(e_slot.size, dtype=np.int64),
            )
            journal["counts"] = {}
            journals.append(journal)
        return journals

    @cached_property
    def _structure(self) -> Dict[str, int]:
        """The compiled structure's fingerprint (see
        :func:`~repro.runtime.checkpoint.structure_fingerprint`)."""
        return structure_fingerprint(self._csr)

    def _snapshot_record(self, *args: Any) -> Dict[str, Any]:
        """The engine's :meth:`_snapshot_meta` plus the journal format
        marker and structure fingerprint a restore checks first."""
        meta = self._snapshot_meta(*args)
        meta["journal_format"] = JOURNAL_FORMAT
        meta["structure"] = self._structure
        return meta

    def _baseline_snapshot(self) -> None:
        """Journal the initial state, coordinator-side (no rounds)."""
        with Stopwatch(self._rec, "snap") as sw:
            self._ckpt.write(
                self._ckpt.next_id(),
                self._baseline_journals(),
                self._snapshot_record(),
            )
        self._cadence.mark(self._progress, sw.end, cost=sw.seconds)

    def _recover_from(self, failure: WorkerFailure) -> None:
        """Respawn the dead worker; roll the whole cluster back.

        The cadence clock re-anchors afterwards so recovery doesn't
        trigger an immediate snapshot.
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
        self._cadence.mark(self._progress, sw.end)
        self._recovery_seconds += sw.seconds

    def _restore_cluster(
        self, meta: Dict[str, Any], journals: List[Dict[str, Any]]
    ) -> None:
        """Send one verified snapshot's state to every worker and reset
        the coordinator to match — shared by mid-run recovery and
        ``run(resume_from=...)`` cold restarts.

        Every worker — a respawn *and* the survivors — applies the
        merged flat journal (survivors' ghosts roll back to their
        owner's snapshot values; that rollback is what makes the
        restored cluster state consistent) and re-seeds its share of
        the snapshot's task set. A snapshot of another graph structure
        or journal format raises :class:`SnapshotError` before any
        restore round.
        """
        check_snapshot_compatible(meta, self._structure)
        merged = merge_journals(journals)
        scheds = self._rollback(meta, journals)
        globals_items = list(meta.get("globals", {}).items())
        messages: List[Tuple[str, Dict[str, Any]]] = [
            (
                "restore",
                {
                    "state": merged,
                    "counts": journals[w].get("counts"),
                    "sched": scheds[w],
                    "globals": globals_items,
                },
            )
            for w in range(self.num_workers)
        ]
        drain_telemetry(self.transport.round(messages), self._collector)
        self.globals = GlobalValues(meta.get("globals"))
        self._inboxes = self._fresh_inboxes()

    # ------------------------------------------------------------------
    # Rounds.
    # ------------------------------------------------------------------
    def _send_round(self, tag: str, extra: Dict[str, Any]) -> List[Any]:
        """One full barrier: send every worker its inbox (the inboxes
        restart empty for the replies to route into), collect every
        reply."""
        messages = []
        for inbox in self._inboxes:
            # Empty inbox fields are stripped from the wire (the
            # common case is an all-control round; workers .get() every
            # key).
            payload = dict(extra)
            payload["inbox"] = {
                key: value for key, value in inbox.items() if value
            }
            messages.append((tag, payload))
        self._inboxes = self._fresh_inboxes()
        # The single reply funnel: piggybacked telemetry batches are
        # stripped here, so no downstream consumer (speculation
        # validation, checkpoint journaling, sync combine, collect
        # write-back) ever sees the extra field.
        return drain_telemetry(self.transport.round(messages), self._collector)

    def _serve_round(
        self,
        writes: Optional[Iterable[Tuple[VertexId, Any]]],
        reads: Optional[Iterable[Tuple[Any, VertexId, bool]]],
    ) -> Tuple[Dict[Any, Dict[str, Any]], List[Any], List[List[Any]]]:
        """The shared half of a serve barrier.

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
        in command R+1 or go stale under the double-buffered ring); every
        other inbox field stays queued for the engine's next round.
        Returns ``(results, replies, writes_by_worker)``; routing the
        replies is the engine's part.
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
        results: Dict[Any, Dict[str, Any]] = {}
        for _half, body in replies:
            served = body.get("serve")
            if served:
                results.update(served)
        return results, replies, writes_by

    # ------------------------------------------------------------------
    # Launch and collect plumbing.
    # ------------------------------------------------------------------
    def _provision_plane(self) -> None:
        """Allocate the data plane through the transport, when eligible.

        The plane's lifecycle is the transport's: torn down with
        shutdown on every exit path. Stays ``None`` for pipe-only
        backends, untyped graphs, or ``use_plane=False``.
        """
        self._plane = None
        if not self.use_plane:
            return
        kind = self.transport.plane_kind()
        if kind is None:
            return
        num_workers = self.num_workers
        csr = self._csr
        spec = plane_spec_for(
            self.graph,
            num_workers,
            max_routable_v=len(csr.vertex_ids) * max(num_workers - 1, 1),
            max_routable_e=2 * len(csr.edge_keys),
            kind=kind,
            ring_cap=self._plane_ring_cap,
        )
        if spec is not None:
            self._plane = self.transport.provision_plane(spec)

    def _encoded_inits(self) -> List[bytes]:
        """Per-worker launch payloads around one shared encoded blob.

        The worker-independent state — dominated by the pickled graph —
        is serialized exactly once and cached for respawning a dead
        worker during recovery; only the worker id differs per payload.
        """
        try:
            self._shared_blob = self._worker_init(0).encode_shared()
        except Exception as exc:
            raise EngineError(
                "worker init payload cannot be pickled — the update "
                "program, sync map/combine/finalize functions, and "
                "all graph data must be module-level / picklable to "
                f"cross process boundaries ({exc})"
            ) from exc
        return [
            encode_worker(w, self._shared_blob)
            for w in range(self.num_workers)
        ]

    def _collect_and_write_back(self) -> Dict[VertexId, int]:
        """Final barrier: gather owned shards into the parent graph.

        The collect command carries each worker's residual inbox so
        in-flight ghost entries land before the shard is read — an edge
        held by two workers reads back its freshest version regardless
        of which endpoint owner reports it. Columns on the data plane
        are read straight out of each worker's shared segment (owned
        slots are authoritative at their owner after the final inbox
        applies); only plane-less columns travel pickled, as the flat
        journal's index/value slices, and are written back by slot.
        Returns the per-vertex update counts.
        """
        replies = self._send_round("collect", {})
        csr = self._csr
        plane = self._plane
        if plane is not None:
            spec = plane.spec
            owner_idx = self._owner_idx
            edge_owner = owner_idx[csr.edge_src_index]
            for w, segment in enumerate(plane.segments):
                if spec.has_v:
                    owned = np.nonzero(owner_idx == w)[0]
                    if owned.size:
                        csr.vdata[owned] = segment.vdata[owned]
                if spec.has_e:
                    slots = np.nonzero(edge_owner == w)[0]
                    if slots.size:
                        csr.edata[slots] = segment.edata[slots]
        self._collected(replies)
        counts: Dict[VertexId, int] = {}
        for reply in replies:
            if "v_index" in reply:
                scatter_rows(csr.vdata, reply["v_index"], reply["v_value"])
            if "e_slot" in reply:
                scatter_rows(csr.edata, reply["e_slot"], reply["e_value"])
            counts.update(reply["counts"])
        return counts

    def _collected(self, replies: List[Dict[str, Any]]) -> None:
        """Engine hook over the collect replies (before write-back)."""
