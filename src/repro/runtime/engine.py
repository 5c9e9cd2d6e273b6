"""The runtime chromatic engine: color-steps on real OS processes.

This is the execution backend the simulated
:class:`~repro.distributed.chromatic.ChromaticEngine` models, made real:
the same color-step schedule (all scheduled vertices of one color run in
parallel, full communication barrier between colors — Sec. 4.2.1), the
same per-shard storage (:class:`~repro.distributed.graph_store.
LocalGraphStore` with version-filtered ghosts), the same partitioning
pipeline (:func:`~repro.distributed.deploy.plan_ownership`: atom cut,
atom-index placement, vertex ownership — deterministic, so placement is
reproducible across the simulator and this backend), and the same sync
aggregation between sweeps (Eq. 2: per-worker partials, master combine,
broadcast). What changes is only *where* updates run: on worker OS
processes via a :class:`~repro.runtime.transport.Transport`, instead of
simulated machines on a discrete-event kernel.

Coordinator ingress runs on the compiled CSR arrays: the coloring is
computed and validated over the deduplicated undirected adjacency, and
the ownership plan's atom index and ``owner`` map are array-derived.
The atom journals are a lazy attribute of the plan that only the
simulator's :func:`~repro.distributed.deploy.deploy` reads, and
construction never touches the interpreter views (``graph.neighbors``),
so on a typed-column graph the coordinator never materializes them.

Two mechanisms keep the communication cost near zero (the intra-node
story of Sec. 4.2.1, where ghost propagation is a memory write, not a
message):

* **Shared-memory data plane** (:mod:`repro.runtime.plane`). On
  typed-column graphs each worker's data columns live in a shared
  segment with a double-buffered dirty-entry ring; ghost exchange is a
  ring write on one side and a version-filtered slice application on
  the other, and the pipes carry only control messages — descriptors,
  scheduling indices, counts, sync partials. ``InprocTransport``
  emulates the plane with in-process arrays over the identical code
  path; untyped graphs (and ``REPRO_NO_SHM=1``) keep the pickled wire.
* **Color-merged rounds.** The coordinator maintains the *exact* global
  task set as a dense mask (it routes every scheduling request and
  workers report fresh local schedules as index arrays), so before each
  barrier it can merge the scheduled frontiers of consecutive colors
  whose members are mutually independent under the active consistency
  model — distance-2 for full consistency — into one round.
  Statically compatible class pairs (precomputed at deploy time over
  the compiled CSR endpoint arrays —
  :func:`~repro.core.coloring.merge_compatible_matrix`) skip the
  per-sweep frontier check. Because an update may *schedule* mid-round
  work that the sequential chromatic order would have executed between
  the merged colors, every color after a group's first executes
  **speculatively**: workers keep undo logs, and after the barrier the
  coordinator inspects the round's fresh schedules and commits the
  longest prefix of the group the oracle would have executed
  identically, rolling the rest back (the verdict rides the next
  round's inbox, so aborts cost no extra barrier). Bit-identity to the
  :class:`~repro.runtime.oracle.ColorSweepScheduler` oracle therefore
  holds **by construction**, for arbitrary update functions.

Execution per sweep costs ``merged_rounds + 1`` message rounds, where
``merged_rounds <= num_nonempty_colors`` — on high-color graphs with
sparse frontiers the per-color barrier collapses toward one round per
sweep.

Determinism: with a coloring proper for the consistency model, scopes
of same-color vertices never read each other's writes, so a color-step's
outcome is independent of intra-step ordering. Results are then
bit-identical across ``InprocTransport``, ``MpTransport`` (any worker
count), the simulated chromatic engine, and a
:class:`~repro.core.engine.SequentialEngine` driven by the
:class:`~repro.runtime.oracle.ColorSweepScheduler`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.coloring import (
    Coloring,
    color_classes,
    coloring_for,
    frontiers_independent,
    merge_compatible_matrix,
    model_distance,
)
from repro.core.consistency import Consistency, edge_key, vertex_key
from repro.core.graph import DataGraph, VertexId
from repro.core.sync import GlobalValues, SyncOperation
from repro.core.update import normalize_schedule
from repro.distributed.deploy import OwnershipPlan, plan_ownership
from repro.errors import EngineError
from repro.obs.events import Stopwatch
from repro.obs.timeline import RunTelemetry, TimelineCollector, drain_telemetry
from repro.runtime.checkpoint import (
    CheckpointManager,
    SnapshotCadence,
    merge_journals,
)
from repro.runtime.plane import plane_spec_for
from repro.runtime.program import check_picklable
from repro.runtime.transport import Transport, WorkerFailure, make_transport
from repro.runtime.worker import WorkerInit, empty_inbox, encode_worker

#: Ceiling on how many colors one merged round may span. Groups larger
#: than this see diminishing returns (one barrier already amortized) and
#: raise the cost of an abort.
_MAX_MERGE_GROUP = 8


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


# ----------------------------------------------------------------------
# Coordinator plumbing shared by the runtime engines (chromatic and
# locking): plane provisioning, one-blob launch encoding, and the final
# collect write-back. One implementation, two engines.
# ----------------------------------------------------------------------
def provision_plane(
    transport: Transport,
    graph: DataGraph,
    num_workers: int,
    use_plane: bool,
    ring_cap: Optional[int],
):
    """Allocate the data plane through the transport, when eligible.

    The plane's lifecycle is the transport's: torn down with shutdown on
    every exit path. Returns ``None`` for pipe-only backends, untyped
    graphs, or ``use_plane=False``.
    """
    if not use_plane:
        return None
    kind = transport.plane_kind()
    if kind is None:
        return None
    csr = graph.compiled
    spec = plane_spec_for(
        graph,
        num_workers,
        max_routable_v=len(csr.vertex_ids) * max(num_workers - 1, 1),
        max_routable_e=2 * len(csr.edge_keys),
        kind=kind,
        ring_cap=ring_cap,
    )
    if spec is None:
        return None
    return transport.provision_plane(spec)


def encode_shared_init(init: Any) -> bytes:
    """Serialize the worker-independent launch state exactly once.

    The blob — dominated by the pickled graph — is reused for every
    worker's launch payload *and* for respawning a dead worker during
    recovery, so engines cache it for the lifetime of a run.
    """
    try:
        return init.encode_shared()
    except Exception as exc:
        raise EngineError(
            "worker init payload cannot be pickled — the update "
            "program, sync map/combine/finalize functions, and "
            "all graph data must be module-level / picklable to "
            f"cross process boundaries ({exc})"
        ) from exc


def encode_init_payloads(init: Any, num_workers: int):
    """Per-worker launch payloads around one shared encoded state blob.

    The worker-independent state is serialized exactly once; only the
    worker id differs per payload, so launch serialization is
    O(structure), not O(workers × structure).
    """
    shared = encode_shared_init(init)
    for worker_id in range(num_workers):
        yield encode_worker(worker_id, shared)


def baseline_journals(
    graph: DataGraph, owner: Dict[VertexId, int], num_workers: int
) -> List[Dict[str, Any]]:
    """Synthesize the launch-time snapshot from the coordinator's graph.

    Taken before any round runs, so it needs no transport traffic — and
    therefore cannot itself be lost to an injected or real worker death:
    a failure in the very first round always has a complete snapshot
    (the initial state) to recover to. Versions are journaled as 0 so a
    restore force-resets survivors' version clocks along with their
    values — without that, post-recovery deliveries would be filtered
    as stale.
    """
    journals: List[Dict[str, Any]] = [
        {"vdata": {}, "edata": {}, "versions": {}, "counts": {}}
        for _ in range(num_workers)
    ]
    for v in graph.vertices():
        journal = journals[owner[v]]
        journal["vdata"][v] = graph.vertex_data(v)
        journal["versions"][vertex_key(v)] = 0
    for (a, b) in graph.edges():
        journal = journals[owner[a]]
        journal["edata"][(a, b)] = graph.edge_data(a, b)
        journal["versions"][edge_key(a, b)] = 0
    return journals


def write_back_plane_columns(
    graph: DataGraph, plane: Any, owner_idx: np.ndarray
) -> None:
    """Read owned slots out of each worker's shared segment.

    After the final collect barrier, owned slots are authoritative at
    their owner's segment — no wire round-trip needed for typed columns
    living on the data plane.
    """
    csr = graph.compiled
    spec = plane.spec
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


def apply_collect_replies(
    graph: DataGraph, replies: List[Dict]
) -> Dict[VertexId, int]:
    """Write collected (pickled) shards into the parent graph; counts."""
    counts: Dict[VertexId, int] = {}
    for reply in replies:
        for v, value in reply.get("vdata", {}).items():
            graph.set_vertex_data(v, value)
        for (a, b), value in reply.get("edata", {}).items():
            graph.set_edge_data(a, b, value)
        counts.update(reply["counts"])
    return counts


class RuntimeChromaticEngine:
    """Chromatic color-step execution on real worker processes.

    Parameters
    ----------
    graph:
        Finalized data graph. After :meth:`run`, its data holds the
        final state (owned shards are collected and written back), so
        downstream analysis code works unchanged.
    program:
        A picklable update function, or an
        :class:`~repro.runtime.program.UpdateProgram` wrapping a factory
        call (required for closure-building factories like
        ``make_pagerank_update``).
    num_workers / transport:
        Worker count and backend: ``"mp"`` (real processes, the
        default), ``"inproc"`` (deterministic single-process), or an
        unlaunched :class:`~repro.runtime.transport.Transport`.
    consistency / coloring:
        As for the simulated chromatic engine: the coloring must be
        valid for the model (validated; defaults to the model's
        heuristic from :func:`~repro.core.coloring.coloring_for`).
    partitioner / assignment / atoms_per_worker:
        Over-partitioning knobs passed to
        :func:`~repro.distributed.deploy.plan_ownership`. The default
        random hash cut is the paper's communication worst case and is
        deterministic across backends.
    syncs / initial_globals:
        Sync operations (evaluated distributed between sweeps) and
        seeded global values.
    max_sweeps / max_updates:
        Stop conditions checked at sweep boundaries, exactly like the
        simulated engine.
    reply_timeout:
        Seconds an ``"mp"`` round waits on a silent-but-alive worker
        before declaring it dead (default 120; raise it for color-steps
        that legitimately compute longer). Ignored by ``"inproc"`` and
        by pre-built transport instances.
    use_kernel:
        When true (the default) workers dispatch whole color-steps to
        the program's batch kernel (:mod:`repro.core.kernels`) if it
        has one and the graph carries compatible typed data columns —
        bit-identical by the kernel contract. ``False`` pins the scalar
        interpreter (the oracle the kernels are tested against).
    merge_rounds:
        When true (the default) consecutive mutually-independent
        scheduled frontiers execute in one merged round (speculative
        tail, commit/abort validated — see the module docstring).
        ``False`` pins one barrier per nonempty color.
    use_plane:
        When true (the default) typed-column graphs get the
        shared-memory data plane (or its in-process emulation);
        ``False`` — like ``REPRO_NO_SHM=1`` — pins the pickled wire.
    plane_ring_cap:
        Override for the dirty-ring capacity (entries per column per
        half); small values exercise the overflow-to-pipe contract.
    snapshot_every / snapshot_dir:
        Fault tolerance (Sec. 4.3). ``snapshot_every=N`` journals a
        consistent snapshot every N sweeps (``"auto"``: wall-clock
        cadence from Young's interval, Eq. 3, fed with measured
        snapshot cost); ``None`` (the default) disables snapshots *and*
        recovery. ``snapshot_dir`` roots the on-disk journals; ``None``
        uses a temporary directory removed when the run ends.
    max_recoveries / recovery_backoff:
        With snapshots on, a :class:`~repro.runtime.transport.
        WorkerFailure` triggers respawn + rollback to the latest
        complete snapshot instead of aborting the run — at most
        ``max_recoveries`` times, sleeping ``recovery_backoff *
        attempt`` seconds before each (a restarted machine is rarely
        instantly healthy).
    """

    def __init__(
        self,
        graph: DataGraph,
        program: Any,
        num_workers: int = 2,
        transport: Union[str, Transport] = "mp",
        consistency: Consistency = Consistency.EDGE,
        coloring: Optional[Coloring] = None,
        partitioner: Any = "hash",
        assignment: Optional[Dict[VertexId, int]] = None,
        atoms_per_worker: int = 4,
        syncs: Iterable[SyncOperation] = (),
        initial_globals: Optional[Dict[str, Any]] = None,
        max_sweeps: Optional[int] = None,
        max_updates: Optional[int] = None,
        reply_timeout: Optional[float] = None,
        use_kernel: bool = True,
        merge_rounds: bool = True,
        use_plane: bool = True,
        plane_ring_cap: Optional[int] = None,
        snapshot_every: Optional[Union[int, str]] = None,
        snapshot_dir: Optional[str] = None,
        max_recoveries: int = 2,
        recovery_backoff: float = 0.05,
        telemetry: bool = False,
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
        self.coloring = coloring_for(graph, consistency, coloring)
        self.classes = color_classes(self.coloring)
        self.num_colors = len(self.classes)
        self.plan: OwnershipPlan = plan_ownership(
            graph,
            num_workers,
            partitioner=partitioner,
            assignment=assignment,
            atoms_per_machine=atoms_per_worker,
        )
        self.owner = self.plan.owner
        self.syncs = tuple(syncs)
        self.globals = GlobalValues(initial_globals)
        self._initial_globals = dict(initial_globals or {})
        self.max_sweeps = max_sweeps
        self.max_updates = max_updates
        self.use_kernel = use_kernel
        self.merge_rounds = merge_rounds
        self.use_plane = use_plane
        self._plane_ring_cap = plane_ring_cap
        self.updates_per_worker: Dict[int, int] = {
            w: 0 for w in range(num_workers)
        }
        # Coordinator-side index geometry: the compiled numbering is
        # canonical across processes, so scheduling state, ownership,
        # and color membership all resolve to flat arrays once.
        csr = graph.compiled
        self._csr = csr
        self._num_vertices = len(csr.vertex_ids)
        self._owner_idx = self.plan.owner_index
        index_of = csr.index_of
        self._class_idx = [
            np.fromiter(
                (index_of[v] for v in members),
                dtype=np.int64,
                count=len(members),
            )
            for members in self.classes
        ]
        self._color_of_idx = np.zeros(self._num_vertices, dtype=np.int64)
        for color, members in enumerate(self._class_idx):
            self._color_of_idx[members] = color
        # Deploy-time merge precompute: class pairs that can never touch
        # under the model skip the per-sweep frontier independence
        # check, and the cross-worker edge mask restricts the dynamic
        # check to edges whose endpoints execute on different workers
        # (same-worker merged colors run in color order with late
        # snapshots — literally the oracle's order — so only remote
        # adjacency can diverge; distance-1 models only).
        self._distance = model_distance(consistency)
        self._merge_static = (
            merge_compatible_matrix(graph, self.classes, consistency)
            if merge_rounds and self.num_colors > 1
            else None
        )
        self._cross_edge = (
            self._owner_idx[csr.edge_src_index]
            != self._owner_idx[csr.edge_dst_index]
        )
        self._plane = None
        #: Pending speculation verdict (count of committed parts of the
        #: last merged round), attached to every worker's next inbox.
        self._pending_spec: Optional[int] = None
        self.rounds_saved = 0
        self._ran = False
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
        self._inboxes = [empty_inbox() for _ in range(num_workers)]
        #: The exact global task set T in dense index space — the
        #: coordinator routes every scheduling request and absorbs every
        #: worker's fresh-schedule report, so this mask always equals
        #: the union of worker task sets plus in-flight requests.
        mask = np.zeros(self._num_vertices, dtype=bool)
        self._mask = mask
        index_of = self._csr.index_of
        owner_idx = self._owner_idx
        init_by_worker: List[List[int]] = [[] for _ in range(num_workers)]
        for vertex, _prio in normalize_schedule(initial, graph=self.graph):
            idx = index_of[vertex]
            if not mask[idx]:
                mask[idx] = True
                init_by_worker[owner_idx[idx]].append(idx)
        for w, indices in enumerate(init_by_worker):
            if indices:
                self._inboxes[w]["sched"].append(
                    np.asarray(indices, dtype=np.int32)
                )
        self._converged = False
        self._sweeps = 0
        self._total_updates = 0
        self._published: List[Tuple[str, Any]] = []
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
            self._provision_plane()
            # The graph-bearing shared state is pickled exactly once;
            # each worker's payload wraps its id around that one blob
            # (see _encoded_inits), so launch serialization is
            # O(structure), not O(workers x structure) — and the cached
            # blob respawns dead workers during recovery.
            self.transport.launch(self._encoded_inits())
            launch_seconds = sw.elapsed()
            if self._ckpt is not None:
                if resume_from is not None:
                    with Stopwatch(self._rec, "recover") as rsw:
                        _sid, meta, journals = self._ckpt.latest_state()
                        self._restore_cluster(meta, journals)
                    self._cadence.mark(self._sweeps, rsw.end)
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
                    counts = self._collect_and_write_back(self._inboxes)
                    break
                except WorkerFailure as exc:
                    if self._ckpt is None:
                        raise
                    self._recoveries += 1
                    if self._recoveries > self.max_recoveries:
                        raise
                    failure = exc
        finally:
            self.transport.shutdown()
            if tmp_root is not None:
                shutil.rmtree(tmp_root, ignore_errors=True)
        wall = sw.stop()
        return self._build_result(counts, wall, launch_seconds)

    def _build_result(
        self,
        counts: Dict[VertexId, int],
        wall: float,
        launch_seconds: float,
    ) -> RuntimeRunResult:
        """Assemble the run summary — shared by :meth:`run` and the
        serving-mode teardown (:meth:`close_service`)."""
        transport = self.transport
        extra: Dict[str, Any] = {}
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
            spec = self._plane.spec if self._plane is not None else None
            telemetry = collector.finalize(
                transport.clock_offsets,
                {
                    "engine": "chromatic",
                    "backend": transport.name,
                    "num_workers": self.num_workers,
                    "data_plane": spec.kind if spec is not None else None,
                    "ring_v": spec.ring_v if spec is not None else 0,
                    "ring_e": spec.ring_e if spec is not None else 0,
                },
            )
        return RuntimeRunResult(
            num_updates=self._total_updates,
            updates_per_vertex=counts,
            converged=self._converged,
            globals=self.globals.snapshot(),
            sweeps=self._sweeps,
            wall_seconds=wall,
            launch_seconds=launch_seconds,
            num_workers=self.num_workers,
            backend=transport.name,
            updates_per_worker=dict(self.updates_per_worker),
            rounds=transport.rounds_completed,
            rounds_saved=self.rounds_saved,
            bytes_on_pipe=transport.bytes_sent + transport.bytes_received,
            data_plane=self._plane.spec.kind if self._plane else None,
            telemetry=telemetry,
            extra=extra,
        )

    def _run_loop(self) -> None:
        """Sweep until convergence or a stop condition (resumable)."""
        num_workers = self.num_workers
        mask = self._mask
        while True:
            if self.syncs:
                # Sweep preamble: distributed sync evaluation. The
                # round doubles as the master's delivery flush.
                replies = self._send_round("sync_count", {}, self._inboxes)
                self._inboxes = [empty_inbox() for _ in range(num_workers)]
                self._published = self._combine_syncs(replies)
            if not mask.any():
                self._converged = True
                break
            if (
                self.max_sweeps is not None
                and self._sweeps >= self.max_sweeps
            ):
                break
            if (
                self.max_updates is not None
                and self._total_updates >= self.max_updates
            ):
                break
            if self._cadence is not None and self._cadence.due(
                self._sweeps, time.perf_counter()
            ):
                self._take_snapshot()
            merge_enabled = self.merge_rounds and self.num_colors > 1
            pos = 0
            while pos < self.num_colors:
                frontier = self._frontier(pos, mask)
                if frontier.size == 0:
                    # Nobody holds (or is being sent) work of this
                    # color: the step would be a global no-op, so it
                    # is elided. Undelivered inbox entries persist to
                    # the next executed round.
                    pos += 1
                    continue
                group = self._plan_group(pos, frontier, mask, merge_enabled)
                if self._published:
                    for inbox in self._inboxes:
                        inbox["globals"] = self._published
                    self._published = []  # globals ship once per sweep
                colors = [color for color, _frontier in group]
                replies = self._send_round(
                    "step", {"colors": colors}, self._inboxes
                )
                self._inboxes = [empty_inbox() for _ in range(num_workers)]
                committed, aborted = self._process_replies(
                    replies, group, mask, self._inboxes
                )
                self._total_updates += committed
                if aborted:
                    # The oracle would have run freshly scheduled
                    # intervening work inside the span: resume the
                    # scan right after the group's first color, with
                    # the rolled-back frontiers still scheduled.
                    # (An abort costs no extra barrier — the
                    # rolled-back colors run in the rounds the
                    # unmerged schedule would have used anyway.)
                    pos = group[0][0] + 1
                else:
                    pos = group[-1][0] + 1
            self._sweeps += 1

    # ------------------------------------------------------------------
    # Serving mode (repro.serve): the resident graph as a service.
    # ------------------------------------------------------------------
    def open_service(self, initial: Iterable = ()) -> None:
        """Launch the cluster and park it at the barrier (serving mode).

        The chromatic fallback behind :class:`repro.serve.GraphService`
        when the locking engine can't be used. Setup matches
        :meth:`run` through launch and baseline snapshot, then returns
        with the workers parked; :meth:`service_pump_round` here runs
        whole sweeps to convergence (color-step granularity — coarser
        than the locking engine's single rounds, the reason locking is
        the preferred serving substrate). Single-use, mutually exclusive
        with :meth:`run`; stop conditions are a run-mode feature.
        """
        if self._ran:
            raise EngineError(
                "runtime engine instances are single-use (worker "
                "processes are torn down at run end); build a new one"
            )
        if self.max_sweeps is not None or self.max_updates is not None:
            raise EngineError(
                "serving mode pumps to quiescence between bursts; "
                "max_sweeps/max_updates stop conditions would park the "
                "service short of convergence forever"
            )
        self._ran = True
        self._serving = True
        collector = self._collector
        rec = collector.coordinator if collector is not None else None
        self.transport.obs = rec
        self._service_sw = Stopwatch(rec, "run")
        num_workers = self.num_workers
        self._inboxes = [empty_inbox() for _ in range(num_workers)]
        mask = np.zeros(self._num_vertices, dtype=bool)
        self._mask = mask
        index_of = self._csr.index_of
        owner_idx = self._owner_idx
        init_by_worker: List[List[int]] = [[] for _ in range(num_workers)]
        for vertex, _prio in normalize_schedule(initial, graph=self.graph):
            idx = index_of[vertex]
            if not mask[idx]:
                mask[idx] = True
                init_by_worker[owner_idx[idx]].append(idx)
        for w, indices in enumerate(init_by_worker):
            if indices:
                self._inboxes[w]["sched"].append(
                    np.asarray(indices, dtype=np.int32)
                )
        self._converged = False
        self._sweeps = 0
        self._total_updates = 0
        self._published = []
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
            self._provision_plane()
            self.transport.launch(self._encoded_inits())
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

        Same contract as the locking engine's ``service_barrier``; the
        serve command delivers pending data-plane inbox entries (the
        double-buffered ring's R/R+1 consumption window) and its reply
        routes the writes' dirty entries to ghost holders through the
        normal wire. The pending speculation verdict, if any, stays
        queued for the next step round — at sweep quiescence any
        outstanding verdict is a full commit, so reads here always
        observe committed state.
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
        for w, (half, body) in enumerate(replies):
            served = body.get("serve")
            if served:
                results.update(served)
            plane = body.get("plane")
            if plane:
                for dst, run in plane.items():
                    inboxes[dst]["plane"].append(
                        (w, half, run[0], run[1], run[2], run[3])
                    )
            data = body.get("data")
            if data:
                for dst, batch in data.items():
                    inbox = inboxes[dst]
                    if inbox["data"] is None:
                        inbox["data"] = batch
                    else:
                        inbox["data"].extend(batch)
        return results

    def service_schedule(self, schedule: Iterable) -> int:
        """Inject dynamic updates into the global task set.

        Chromatic variant: deduplicates against the coordinator's exact
        task mask and routes dense int32 index arrays to the owners,
        exactly like a run's initial schedule (priorities are a locking
        engine concept). Returns the number of *fresh* tasks injected.
        """
        num_workers = self.num_workers
        index_of = self._csr.index_of
        owner_idx = self._owner_idx
        mask = self._mask
        by_worker: List[List[int]] = [[] for _ in range(num_workers)]
        count = 0
        for vertex, _prio in normalize_schedule(schedule, graph=self.graph):
            idx = index_of[vertex]
            if not mask[idx]:
                mask[idx] = True
                by_worker[owner_idx[idx]].append(idx)
                count += 1
        for w, indices in enumerate(by_worker):
            if indices:
                self._inboxes[w]["sched"].append(
                    np.asarray(indices, dtype=np.int32)
                )
        return count

    def service_pump_round(self) -> bool:
        """Run sweeps until the task set drains; always ends quiescent.

        The chromatic engine has no notion of a single background round
        — its unit of progress is the color-step sweep — so one pump
        call runs :meth:`_run_loop` to convergence and returns ``True``.
        With an empty task set this is free: no round is sent, so any
        residual routed entries stay valid for the next barrier (the
        ring's consumption window counts commands, not method calls).
        """
        self._converged = False
        self._run_loop()
        return True

    def close_service(self, snapshot: bool = True) -> RuntimeRunResult:
        """Graceful drain: quiesce, snapshot, collect, tear down."""
        if not getattr(self, "_serving", False):
            raise EngineError(
                "no open service (open_service was never called, or the "
                "service is already closed)"
            )
        self._serving = False
        counts: Dict[VertexId, int] = {}
        try:
            self.service_pump_round()
            if snapshot and self._ckpt is not None:
                self._take_snapshot()
            counts = self._collect_and_write_back(self._inboxes)
        finally:
            self.transport.shutdown()
            if self._service_tmp_root is not None:
                shutil.rmtree(self._service_tmp_root, ignore_errors=True)
        wall = self._service_sw.stop()
        return self._build_result(
            counts, wall, self._service_launch_seconds
        )

    # ------------------------------------------------------------------
    # Snapshots and recovery (Sec. 4.3).
    # ------------------------------------------------------------------
    @property
    def _rec(self):
        """Coordinator span recorder, or ``None`` when telemetry is off."""
        collector = self._collector
        return collector.coordinator if collector is not None else None

    def _snapshot_meta(self) -> Dict[str, Any]:
        """Coordinator progress record stored beside the journals."""
        return {
            "engine": "chromatic",
            "mode": "sync",
            "sweeps": self._sweeps,
            "total_updates": self._total_updates,
            "updates_per_worker": dict(self.updates_per_worker),
            "globals": self.globals.snapshot(),
            "rounds_saved": self.rounds_saved,
            "mask": np.nonzero(self._mask)[0],
        }

    def _baseline_snapshot(self) -> None:
        """Journal the initial state, coordinator-side (no rounds)."""
        with Stopwatch(self._rec, "snap") as sw:
            self._ckpt.write(
                self._ckpt.next_id(),
                baseline_journals(self.graph, self.owner, self.num_workers),
                self._snapshot_meta(),
            )
        self._cadence.mark(self._sweeps, sw.end, cost=sw.seconds)

    def _take_snapshot(self) -> None:
        """Synchronous snapshot at a sweep barrier.

        The checkpoint round delivers each worker's residual inbox
        (including any pending speculation verdict, so journals are
        post-verdict) and replies with its journal; scheduling state is
        not journaled per worker — the coordinator's global mask is
        exact and rides the meta record.
        """
        with Stopwatch(self._rec, "snap") as sw:
            snapshot_id = self._ckpt.next_id()
            journals = self._send_round("checkpoint", {}, self._inboxes)
            self._inboxes = [empty_inbox() for _ in range(self.num_workers)]
            self._ckpt.write(snapshot_id, journals, self._snapshot_meta())
        self._cadence.mark(self._sweeps, sw.end, cost=sw.seconds)

    def _recover_from(self, failure: WorkerFailure) -> None:
        """Respawn the dead worker; roll the whole cluster back.

        Every worker — the respawn *and* the survivors — applies the
        merged journal (survivors' ghosts roll back to their owner's
        snapshot values; that rollback is what makes the restored
        cluster state consistent) and re-seeds its share of the
        snapshot's task set. Coordinator progress counters, globals,
        and the task mask reset from the meta record; the cadence clock
        re-anchors so recovery doesn't trigger an immediate snapshot.
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
        self._cadence.mark(self._sweeps, sw.end)
        self._recovery_seconds += sw.seconds

    def _restore_cluster(
        self, meta: Dict[str, Any], journals: List[Dict[str, Any]]
    ) -> None:
        """Send one verified snapshot's state to every worker and reset
        the coordinator to match — shared by mid-run recovery and
        ``run(resume_from=...)`` cold restarts."""
        merged = merge_journals(journals)
        mask = np.zeros(self._num_vertices, dtype=bool)
        mask_idx = np.asarray(meta["mask"], dtype=np.int64)
        if mask_idx.size:
            mask[mask_idx] = True
        self._mask = mask
        owner_idx = self._owner_idx
        globals_items = list(meta.get("globals", {}).items())
        messages: List[Tuple[str, Dict[str, Any]]] = []
        for w in range(self.num_workers):
            messages.append((
                "restore",
                {
                    "state": merged,
                    "counts": journals[w].get("counts"),
                    "sched": mask_idx[owner_idx[mask_idx] == w].astype(
                        np.int32
                    ),
                    "globals": globals_items,
                },
            ))
        drain_telemetry(self.transport.round(messages), self._collector)
        self._sweeps = meta["sweeps"]
        self._total_updates = meta["total_updates"]
        self.updates_per_worker = dict(meta["updates_per_worker"])
        self.rounds_saved = meta.get("rounds_saved", 0)
        self.globals = GlobalValues(meta.get("globals"))
        self._pending_spec = None
        self._published = []
        self._inboxes = [empty_inbox() for _ in range(self.num_workers)]

    # ------------------------------------------------------------------
    # Rounds.
    # ------------------------------------------------------------------
    def _send_round(
        self, tag: str, extra: Dict[str, Any], inboxes: List[Dict]
    ) -> List[Any]:
        """One full barrier: attach the pending speculation verdict,
        send every worker its inbox, collect every reply."""
        if self._pending_spec is not None:
            for inbox in inboxes:
                inbox["spec"] = self._pending_spec
            self._pending_spec = None
        messages = []
        for inbox in inboxes:
            # Empty inbox fields are stripped from the wire (the
            # common case is an all-control round; workers .get() every
            # key). The speculation verdict is >= 1, so it survives.
            payload = dict(extra)
            payload["inbox"] = {
                key: value for key, value in inbox.items() if value
            }
            messages.append((tag, payload))
        # The single reply funnel: piggybacked telemetry batches are
        # stripped here, so no downstream consumer (speculation
        # validation, checkpoint journaling, sync combine, collect
        # write-back) ever sees the extra field.
        return drain_telemetry(self.transport.round(messages), self._collector)

    def _frontier(self, color: int, mask: np.ndarray) -> np.ndarray:
        members = self._class_idx[color]
        return members[mask[members]]

    def _plan_group(
        self,
        pos: int,
        frontier: np.ndarray,
        mask: np.ndarray,
        merge_enabled: bool,
    ) -> List[Tuple[int, np.ndarray]]:
        """Greedily extend one round across merge-compatible colors.

        A later color joins the group when its scheduled frontier is
        :func:`~repro.core.coloring.frontiers_independent` of the
        group's union under the model distance (statically compatible
        class pairs skip the check). The scan stops at the first
        incompatible nonempty color — it must get its own barrier.
        """
        group = [(pos, frontier)]
        if not merge_enabled:
            return group
        csr = self._csr
        static = self._merge_static
        distance = self._distance
        cross = self._cross_edge if distance == 1 else None
        union = np.zeros(self._num_vertices, dtype=bool)
        union[frontier] = True
        color = pos + 1
        while color < self.num_colors and len(group) < _MAX_MERGE_GROUP:
            nxt = self._frontier(color, mask)
            if nxt.size == 0:
                color += 1
                continue
            if all(static[c, color] for c, _f in group):
                ok = True
            else:
                fmask = np.zeros(self._num_vertices, dtype=bool)
                fmask[nxt] = True
                ok = frontiers_independent(
                    csr, union, fmask, distance, edge_mask=cross
                )
            if not ok:
                break
            group.append((color, nxt))
            union[nxt] = True
            color += 1
        return group

    def _process_replies(
        self,
        replies: List[Dict],
        group: List[Tuple[int, np.ndarray]],
        mask: np.ndarray,
        inboxes: List[Dict],
    ) -> Tuple[int, bool]:
        """Validate speculation, commit the safe prefix, route exchange.

        Returns ``(committed_updates, aborted)``. Acceptance follows the
        oracle's order exactly: a fresh schedule (not in the pre-round
        task set) with a color inside the group's remaining span would,
        in chromatic order, have executed before — or joined the
        snapshot of — a later merged color, so the first part the oracle
        would have diverged at (and everything after it) is rolled back;
        the verdict (count of committed parts) rides the next round's
        inboxes. Exception, under distance-1 models: a *local* fresh
        schedule targeting a later merged color is executed by its own
        worker at exactly that part (late snapshots, color order — the
        oracle's interleaving), so it aborts nothing; instead the
        post-round conflict scan checks that no cross-worker edge joins
        vertices executed in different parts (each side would have
        missed the other's intra-round writes), aborting from the later
        conflicting part on.

        Routing of a committed part: dirty ring descriptors and pickled
        overflow batches to their destination inboxes, remote schedule
        requests to their owners, fresh schedules into the global mask
        (after clearing the part's executed frontier — including fresh
        vertices a committed earlier part locally scheduled into it).
        Within one round at most one worker writes any given slot (the
        merged frontiers are mutually independent where it matters), so
        merge order cannot change outcomes.
        """
        k = len(group)
        colors = [color for color, _f in group]
        committed = k
        #: part index -> fresh locally-scheduled vertices that executed
        #: there (cleared from the mask when the part commits).
        exec_at: Dict[int, List[np.ndarray]] = {}
        if k > 1:
            colors_arr = np.asarray(colors, dtype=np.int64)
            color_of = self._color_of_idx
            dk = colors[-1]
            cross_mode = self._distance == 1
            for i in range(k):
                di = colors[i]
                for reply in replies:
                    part = reply[1][i]
                    _n, _dirty, _plane, local, remote = part
                    arrays = [] if local is None else [(local, True)]
                    if remote is not None:
                        arrays.extend(
                            (arr, False) for arr in remote.values()
                        )
                    for arr, is_local in arrays:
                        arr = np.asarray(arr, dtype=np.int64)
                        fresh = arr[~mask[arr]]
                        if not fresh.size:
                            continue
                        cols = color_of[fresh]
                        window = (cols > di) & (cols <= dk)
                        if not window.any():
                            continue
                        if is_local and cross_mode:
                            # Locals into later merged colors execute
                            # at that part on their own worker — record
                            # for mask clearing, exempt from abort.
                            in_group = window & np.isin(cols, colors_arr)
                            for c in np.unique(cols[in_group]):
                                m = int(np.searchsorted(colors_arr, c))
                                exec_at.setdefault(m, []).append(
                                    fresh[in_group & (cols == c)]
                                )
                            window = window & ~in_group
                            if not window.any():
                                continue
                        first = int(
                            np.searchsorted(
                                colors_arr, cols[window], side="left"
                            ).min()
                        )
                        committed = min(committed, max(first, 1))
            if cross_mode and committed > 1:
                committed = min(
                    committed, self._conflict_point(group, exec_at)
                )
        updates = 0
        for i in range(committed):
            _color, frontier = group[i]
            mask[frontier] = False
            for executed in exec_at.pop(i, ()):
                mask[executed] = False
            for w, reply in enumerate(replies):
                half, parts = reply
                n, dirty, plane, local, remote = parts[i]
                if local is not None:
                    mask[local] = True
                if remote is not None:
                    for dst, arr in remote.items():
                        mask[arr] = True
                        inboxes[dst]["sched"].append(arr)
                if plane is not None:
                    for dst, run in plane.items():
                        inboxes[dst]["plane"].append(
                            (w, half, run[0], run[1], run[2], run[3])
                        )
                if dirty is not None:
                    for dst, batch in dirty.items():
                        inbox = inboxes[dst]
                        if inbox["data"] is None:
                            inbox["data"] = batch
                        else:
                            inbox["data"].extend(batch)
                if n:
                    updates += n
                    self.updates_per_worker[w] += n
        if k > 1:
            self._pending_spec = committed
            # Every committed part beyond the first is a barrier the
            # unmerged schedule would have paid — counted even when the
            # tail aborted (a partial commit still elided barriers).
            self.rounds_saved += committed - 1
        return updates, committed < k

    def _conflict_point(
        self,
        group: List[Tuple[int, np.ndarray]],
        exec_at: Dict[int, List[np.ndarray]],
    ) -> int:
        """First part invalidated by a cross-worker execution conflict.

        Builds the round's actual per-vertex execution map — planned
        frontiers plus fresh locals executed at later parts — and scans
        the endpoint arrays once: an edge whose ends executed in
        *different* parts on *different* workers means the later end
        missed the earlier end's intra-round writes (or the earlier end
        missed serving the later one), which the oracle would have
        delivered; the later part (and everything after) must roll
        back. Planned frontiers were vetted at planning time, so real
        conflicts always involve a fresh locally-scheduled vertex.
        """
        exec_part = np.full(self._num_vertices, -1, dtype=np.int64)
        for i, (_color, frontier) in enumerate(group):
            exec_part[frontier] = i
        for part, arrays in exec_at.items():
            for arr in arrays:
                exec_part[arr] = part
        csr = self._csr
        src_part = exec_part[csr.edge_src_index]
        dst_part = exec_part[csr.edge_dst_index]
        conflicts = (
            (src_part >= 0)
            & (dst_part >= 0)
            & (src_part != dst_part)
            & self._cross_edge
        )
        if not conflicts.any():
            return len(group)
        return int(
            np.maximum(src_part[conflicts], dst_part[conflicts]).min()
        )

    # ------------------------------------------------------------------
    # Launch plumbing.
    # ------------------------------------------------------------------
    def _provision_plane(self) -> None:
        self._plane = provision_plane(
            self.transport,
            self.graph,
            self.num_workers,
            self.use_plane,
            self._plane_ring_cap,
        )

    def _encoded_inits(self):
        self._shared_blob = encode_shared_init(self._worker_init(0))
        return [
            encode_worker(w, self._shared_blob)
            for w in range(self.num_workers)
        ]

    def _worker_init(self, worker_id: int) -> WorkerInit:
        return WorkerInit(
            worker_id=worker_id,
            num_workers=self.num_workers,
            graph=self.graph,
            owner=self.owner,
            classes=self.classes,
            consistency=self.consistency,
            program=self.program,
            syncs=self.syncs,
            initial_globals=self._initial_globals,
            use_kernel=self.use_kernel,
            plane=self._plane.spec if self._plane is not None else None,
            telemetry=self.telemetry,
        )

    def _combine_syncs(self, replies: List[Dict]) -> List[Tuple[str, Any]]:
        """Master side of Eq. 2: combine partials, publish, broadcast."""
        published = []
        for i, sync in enumerate(self.syncs):
            value = sync.combine_partials(
                reply["partials"][i] for reply in replies
            )
            self.globals.publish(sync.key, value)
            published.append((sync.key, value))
        return published

    def _collect_and_write_back(
        self, inboxes: List[Dict]
    ) -> Dict[VertexId, int]:
        """Gather owned shards; write final data into the parent graph.

        The collect command carries each worker's residual inbox so
        ghost entries from the last executed color-step land before the
        shard is read — an edge held by two workers reads back its
        freshest version regardless of which endpoint owner reports it.
        Columns on the data plane are read straight out of each worker's
        shared segment (owned slots are authoritative at their owner
        after the final inbox applies); only plane-less columns travel
        pickled.
        """
        replies = self._send_round("collect", {}, inboxes)
        if self._plane is not None:
            write_back_plane_columns(self.graph, self._plane, self._owner_idx)
        return apply_collect_replies(self.graph, replies)
