"""The benchmark's four workloads, each a sequence of timed jobs.

A job builds its input graph from pre-generated, seed-derived lists,
launches the runtime on two worker processes over ``MpTransport``, runs
to an answer and checks that answer against an oracle computed once per
seed (in a child process, so it is outside every timer and outside the
memory measurement). A job that raises or fails its check yields no
timing and counts as failed.

``setup_s`` is ingress: graph build and finalize, coloring, engine
construction and worker launch (for serving, up to a parked, quiescent
service). ``run_s`` is the wall time from the end of input to a verified
answer: from launch done for the batch workloads, from the last
acknowledged write of a ladder step for serving. ``cpu_s`` is what the
whole job cost: user plus system CPU seconds of this process and every
worker, from ingress to verified answer. ``cpu_s`` and ``setup_s`` are
the gated end-to-end metrics; wall-clock ``run_s`` is printed but not
gated, because on a shared two-vCPU host it moves with the time the
hypervisor steals (the barrier rounds amplify a descheduled vCPU), while
CPU seconds stay within a few percent.

A traced job (``tracer`` given) runs with engine telemetry on and with
the layer entry points wrapped (see :func:`instrument`); its per-layer
numbers come from the spans.
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.als import (
    als_program,
    initialize_factors,
    make_als_update,
    training_rmse,
)
from repro.apps.pagerank import (
    exact_pagerank,
    make_pagerank_update,
)
from repro.core.coloring import greedy_coloring
from repro.core.engine import SequentialEngine
from repro.core.graph import DataGraph
from repro.datasets.netflix import synthetic_netflix
from repro.datasets.webgraph import power_law_web_graph
from repro.obs import phase_share_fractions
from repro.runtime import (
    CheckpointManager,
    ColorSweepScheduler,
    MpTransport,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    UpdateProgram,
    named_program,
)
from repro.serve import GraphService, Rejection, build_serving_graph

from perfbench import metrics
from perfbench.loadgen import make_step, run_step
from perfbench.probes import RssSampler, Tracer

NUM_WORKERS = 2

#: Fig. 1a-family web graph shared by ``chromatic_pagerank`` and
#: ``fault_pagerank``.
PR_VERTICES = 16000
PR_OUT_DEGREE = 4
PR_SWEEPS = 50
PR_PROGRAM = UpdateProgram(make_pagerank_update, kwargs={"schedule": "self"})

FAULT_SWEEPS = 20
FAULT_SNAPSHOT_EVERY = 10
#: Worker 1 dies at the start of this round (0-based count of completed
#: rounds): a few sweeps after the sweep-10 snapshot.
FAULT_KILL = (1, 90)

#: Fig. 1d dynamic ALS.
ALS_USERS, ALS_MOVIES, ALS_RATINGS_PER_USER = 300, 100, 20
ALS_D = 5
ALS_EPSILON = 0.01
ALS_WINDOW = 64
#: The runtime's training RMSE may exceed the sequential oracle's by at
#: most this factor (the fixed point is promised, not a bit pattern).
ALS_RMSE_SLACK = 1.02

#: Serving: graph size, offered-load ladder and the step at which the
#: headline latencies are reported.
SERVE_VERTICES = 2000
SERVE_RATES = (1000, 2000, 4000, 8000)
SERVE_STEP_REQUESTS = 3000
SERVE_STATED_RATE = 2000
SERVE_WRITE_FRAC = 0.2
SERVE_SCOPE_FRAC = 0.1
SERVE_LATENCY_LIMIT_S = 0.050
SERVE_L1_BOUND = 1e-3
#: Admission queue bound above a step's request count: an overloaded
#: step shows as latency and backlog, never as shed (failed) requests,
#: so a run fails only on a wrong answer.
SERVE_QUEUE_LIMIT = 4096
#: Residual threshold well below a typical rank (1 / SERVE_VERTICES).
SERVE_PROGRAM = named_program("pagerank_delta", epsilon=1e-7)

#: Round command tags reported one by one (others still count towards
#: the accounting check).
ROUND_TAGS = ("step", "lstep", "serve", "checkpoint", "restore", "collect")

WORKER_PHASES = ("compute", "ghost", "ser", "idle", "snap")


@dataclass
class Job:
    """One timed job. ``layer`` holds per-layer values of a traced job;
    ``samples`` holds pooled raw samples (round and serving latencies)."""

    ok: bool
    traced: bool
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 1
    failed: int = 0
    layer: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    error: str = ""


# ----------------------------------------------------------------------
# Inputs: plain lists, generated outside every timer.
# ----------------------------------------------------------------------
@dataclass
class GraphInput:
    vertices: List[Any]
    vdata: List[Any]
    edges: List[Tuple[Any, Any, Any]]
    typed: bool


def graph_input(graph: DataGraph, typed: bool) -> GraphInput:
    vertices = list(graph.vertices())
    return GraphInput(
        vertices,
        [graph.vertex_data(v) for v in vertices],
        [(u, v, graph.edge_data(u, v)) for (u, v) in graph.edges()],
        typed,
    )


def build_graph(spec: GraphInput) -> DataGraph:
    """Ingress: the graph as a user would load it, finalized."""
    graph = DataGraph()
    for v, value in zip(spec.vertices, spec.vdata):
        graph.add_vertex(v, data=value)
    for u, v, value in spec.edges:
        graph.add_edge(u, v, data=value)
    if spec.typed:
        return graph.finalize(vertex_dtype=float, edge_dtype=float)
    return graph.finalize()


def in_child(fn: Callable, *args: Any) -> Any:
    """Run ``fn(*args)`` in a fresh child process and return its result.

    Keeps oracle work out of this process's memory high-water mark.
    """
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(fn, *args).result()


# ----------------------------------------------------------------------
# Tracing hooks.
# ----------------------------------------------------------------------
def _round_tag(args: tuple, _kwargs: dict) -> str:
    return args[0][0][0]


def _batch_size(args: tuple, kwargs: dict) -> int:
    writes = kwargs.get("writes", args[1] if len(args) > 1 else None)
    reads = kwargs.get("reads", args[2] if len(args) > 2 else None)
    return len(writes or ()) + len(reads or ())


def instrument(tracer: Tracer, transport: Any) -> None:
    """Wrap the transport instance and the checkpoint manager class."""
    tracer.wrap(transport, "launch", "transport.launch")
    tracer.wrap(transport, "round", "transport.round", tag=_round_tag)
    tracer.wrap(transport, "recover", "transport.recover")
    tracer.wrap(CheckpointManager, "write", "checkpoint.write")
    tracer.wrap(CheckpointManager, "latest_state", "checkpoint.latest_state")


def _sum(spans) -> float:
    return float(sum(s.seconds for s in spans))


def batch_layers(
    tracer: Tracer, since: int, result: Any, run_s: float, verify_s: float
) -> Tuple[Dict[str, float], List[float]]:
    """Per-layer values of one traced batch job, plus its round times.

    ``coord.self_s`` is the engine-run span after launch minus the part
    of it covered by round, recover and checkpoint spans (an interval
    union, so nested spans are not subtracted twice). The accounting
    residual is ``run_s`` (timed outside, launch done to verified
    answer) minus the self time, every wrapped child's duration and the
    verification time; double-counted or missed time shows up there.
    """
    launch = tracer.named("transport.launch", since)[0]
    run = tracer.named("engine.run", since)[0]
    rounds = tracer.named("transport.round", since)
    recovers = tracer.named("transport.recover", since)
    writes = tracer.named("checkpoint.write", since)
    restores = tracer.named("checkpoint.latest_state", since)
    children = rounds + recovers + writes + restores
    window_start = launch.end
    covered = metrics.interval_union(
        (max(s.start, window_start), min(s.end, run.end))
        for s in children
        if s.end > window_start and s.start < run.end
    )
    coord_self = (run.end - window_start) - covered
    layer: Dict[str, float] = {
        "transport.launch_s": launch.seconds,
        "transport.rounds": float(len(rounds)),
        "transport.bytes": float(result.bytes_on_pipe),
        "transport.recover_s": _sum(recovers),
        "coord.self_s": coord_self,
        "engine.updates": float(result.num_updates),
        "checkpoint.snapshots": float(result.extra.get("snapshots", 0)),
        "checkpoint.bytes": float(result.extra.get("snapshot_bytes", 0)),
        "checkpoint.write_s": _sum(writes),
        "checkpoint.restore_s": _sum(restores),
        "fault.recovery_s": float(result.extra.get("recovery_seconds", 0.0)),
    }
    for tag in ROUND_TAGS:
        layer[f"transport.round_s.{tag}"] = _sum(
            s for s in rounds if s.tag == tag
        )
    accounted = coord_self + _sum(children) + verify_s
    layer["accounting.residual_s"] = run_s - accounted
    layer.update(worker_shares(result))
    return layer, [s.seconds for s in rounds]


def worker_shares(result: Any) -> Dict[str, float]:
    shares = phase_share_fractions(result.telemetry)
    return {
        f"worker.{p}_share": float(shares.get(p, 0.0)) for p in WORKER_PHASES
    }


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Workload:
    name = ""

    def make_inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def oracle(self, inputs: Any) -> Any:
        """Computed once per seed, in a child process."""
        raise NotImplementedError

    def units(self) -> Tuple[Any, ...]:
        """The jobs of one pass (a serving pass runs every ladder step)."""
        return (None,)

    def job(
        self, inputs: Any, truth: Any, tracer: Optional[Tracer], unit: Any
    ) -> Job:
        raise NotImplementedError


def _pagerank_oracle(spec: GraphInput, sweeps: int) -> List[float]:
    """``SequentialEngine`` + ``ColorSweepScheduler``: the bit pattern
    every chromatic run must reproduce."""
    graph = build_graph(spec)
    engine = SequentialEngine(
        graph,
        make_pagerank_update(schedule="self"),
        scheduler=ColorSweepScheduler(greedy_coloring(graph)),
        max_updates=sweeps * graph.num_vertices,
    )
    engine.run(initial=graph.vertices())
    return [graph.vertex_data(v) for v in spec.vertices]


class ChromaticPageRank(Workload):
    name = "chromatic_pagerank"
    sweeps = PR_SWEEPS

    def make_inputs(self, seed: int) -> GraphInput:
        graph = power_law_web_graph(
            PR_VERTICES, out_degree=PR_OUT_DEGREE, seed=seed, typed=True
        )
        return graph_input(graph, typed=True)

    def oracle(self, inputs: GraphInput) -> List[float]:
        return in_child(_pagerank_oracle, inputs, self.sweeps)

    #: Extra engine arguments (snapshots for the fault workload).
    engine_kwargs: Dict[str, Any] = {}

    def prepare(self, engine: Any) -> None:
        """Hook run on the built engine before ``run``."""

    def check(self, result: Any) -> bool:
        return True

    def job(self, inputs: GraphInput, truth: List[float], tracer, _unit):
        since = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        graph = build_graph(inputs)
        coloring = greedy_coloring(graph)
        engine = RuntimeChromaticEngine(
            graph,
            PR_PROGRAM,
            num_workers=NUM_WORKERS,
            transport="mp",
            coloring=coloring,
            max_sweeps=self.sweeps,
            telemetry=tracer is not None,
            **self.engine_kwargs,
        )
        self.prepare(engine)
        return finish_batch(
            engine,
            t0,
            lambda result: self.check(result)
            and [graph.vertex_data(v) for v in inputs.vertices] == truth,
            tracer,
            since,
            chromatic_layers,
        )


class FaultPageRank(ChromaticPageRank):
    name = "fault_pagerank"
    sweeps = FAULT_SWEEPS

    # Snapshots go to a temporary directory the engine removes at run
    # end (inside the benchmark's temp root).
    engine_kwargs = {"snapshot_every": FAULT_SNAPSHOT_EVERY}

    def prepare(self, engine: Any) -> None:
        engine.transport.schedule_kill(*FAULT_KILL)

    def check(self, result: Any) -> bool:
        # The kill must really have fired and been recovered from.
        return result.extra.get("recoveries") == 1


@dataclass
class AlsInput:
    graph: GraphInput
    factors: List[Any]


def _als_oracle(inputs: AlsInput) -> float:
    graph = build_graph(inputs.graph)
    for v, factor in zip(inputs.graph.vertices, inputs.factors):
        graph.set_vertex_data(v, factor.copy())
    SequentialEngine(
        graph,
        make_als_update(ALS_D, epsilon=ALS_EPSILON),
        scheduler="priority",
    ).run(initial=graph.vertices())
    return training_rmse(graph)


class LockingAls(Workload):
    name = "locking_als"

    def make_inputs(self, seed: int) -> AlsInput:
        data = synthetic_netflix(
            num_users=ALS_USERS,
            num_movies=ALS_MOVIES,
            ratings_per_user=ALS_RATINGS_PER_USER,
            d_true=3,
            seed=seed,
        )
        graph = data.graph.copy()
        initialize_factors(graph, ALS_D, seed=seed + 1)
        spec = graph_input(data.graph, typed=False)
        return AlsInput(spec, [graph.vertex_data(v) for v in spec.vertices])

    def oracle(self, inputs: AlsInput) -> float:
        return in_child(_als_oracle, inputs)

    def job(self, inputs: AlsInput, truth: float, tracer, _unit) -> Job:
        since = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        graph = build_graph(inputs.graph)
        for v, factor in zip(inputs.graph.vertices, inputs.factors):
            graph.set_vertex_data(v, factor.copy())
        engine = RuntimeLockingEngine(
            graph,
            als_program(ALS_D, epsilon=ALS_EPSILON),
            num_workers=NUM_WORKERS,
            transport="mp",
            scheduler="priority",
            pipeline_window=ALS_WINDOW,
            telemetry=tracer is not None,
        )
        return finish_batch(
            engine,
            t0,
            lambda result: result.converged
            and training_rmse(graph) <= truth * ALS_RMSE_SLACK,
            tracer,
            since,
            locking_layers,
        )


def chromatic_layers(result: Any) -> Dict[str, float]:
    return {
        "chromatic.rounds_per_sweep": result.rounds / max(result.sweeps, 1),
        "chromatic.rounds_saved": float(result.rounds_saved),
    }


def locking_layers(result: Any) -> Dict[str, float]:
    return {
        "locking.rounds_per_update": (
            result.rounds / max(result.num_updates, 1)
        ),
        "locking.token_hops": float(result.extra.get("token_hops", 0)),
    }


def finish_batch(engine, t0, verify, tracer, since, layer_extra) -> Job:
    """Run a built batch engine, verify, and time both phases."""
    if tracer is not None:
        instrument(tracer, engine.transport)
        tracer.wrap(engine, "run", "engine.run")
    try:
        t_run = time.perf_counter()
        result = engine.run(initial=engine.graph.vertices())
        t_returned = time.perf_counter()
        ok = bool(verify(result))
        t_verified = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    launch_done = t_run + result.launch_seconds
    job = Job(
        ok=ok,
        traced=tracer is not None,
        setup_s=launch_done - t0,
        run_s=t_verified - launch_done,
        failed=0 if ok else 1,
    )
    if tracer is not None:
        tracer.add("bench.verify", t_returned, t_verified)
        job.layer, round_times = batch_layers(
            tracer, since, result, job.run_s, t_verified - t_returned
        )
        job.layer.update(layer_extra(result))
        job.samples["round"] = round_times
    return job


# ----------------------------------------------------------------------
# Serving.
# ----------------------------------------------------------------------
@dataclass
class ServeInput:
    graph: GraphInput
    steps: Dict[int, list]


def _exact_ranks(spec: GraphInput) -> List[float]:
    truth = exact_pagerank(build_graph(spec))
    return [truth[v] for v in spec.vertices]


class ServeMixed(Workload):
    """One fresh service per ladder step; a pass runs every step once.

    The service loads the graph with its exact PageRank (a resident
    answer computed offline), warms up (one update per vertex; without
    it the stream's first requests pay the workers' one-time start-up
    costs, which triples the read p99) until it parks quiescent, takes
    the step's open-loop stream, then closes: ``close()`` drains the background
    healing and the collected ranks must be back within
    :data:`SERVE_L1_BOUND` of exact PageRank. Each write schedules the
    written vertex itself (``touch="self"``), whose recomputation
    undoes the perturbation and sends the residual wave downstream.
    ``run_s`` is the time from the step's last acknowledged write to
    that verified answer (the heal time).
    """

    name = "serve_mixed"

    def make_inputs(self, seed: int) -> ServeInput:
        graph = build_serving_graph(SERVE_VERTICES, seed=seed)
        spec = graph_input(graph, typed=True)
        spec.vdata = in_child(_exact_ranks, spec)
        rng = random.Random(seed)
        steps = {
            rate: make_step(
                rng,
                rate,
                SERVE_STEP_REQUESTS,
                SERVE_VERTICES,
                SERVE_WRITE_FRAC,
                SERVE_SCOPE_FRAC,
            )
            for rate in SERVE_RATES
        }
        return ServeInput(spec, steps)

    def oracle(self, inputs: ServeInput) -> List[float]:
        return list(inputs.graph.vdata)

    def units(self) -> Tuple[Any, ...]:
        return SERVE_RATES

    def job(self, inputs: ServeInput, truth: List[float], tracer, rate) -> Job:
        since = len(tracer.spans) if tracer is not None else 0
        ops = inputs.steps[rate]
        t0 = time.perf_counter()
        graph = build_graph(inputs.graph)
        transport = MpTransport(NUM_WORKERS)
        service = GraphService(
            graph,
            SERVE_PROGRAM,
            num_workers=NUM_WORKERS,
            transport=transport,
            touch="self",
            queue_limit=SERVE_QUEUE_LIMIT,
            telemetry=tracer is not None,
        )
        tickets: List[Any] = []
        submit = service.submit
        if tracer is not None:
            instrument(tracer, transport)
            for attr, tag in (
                ("service_barrier", _batch_size),
                ("service_schedule", None),
                ("service_pump_round", None),
            ):
                tracer.wrap(
                    RuntimeLockingEngine, attr, f"engine.{attr}", tag=tag
                )
            tracer.wrap(service, "submit", "serve.submit")

            def submit(request: Any) -> Any:
                reply = service.submit(request)
                if not isinstance(reply, Rejection):
                    tickets.append(reply)
                return reply

        try:
            service.start()
            while not service.stats()["quiescent"]:
                time.sleep(0.001)
            setup_s = time.perf_counter() - t0
            step = run_step(submit, ops)
            write_acks = [
                done
                for op, done in zip(ops, step.done)
                if op.kind == "write" and done is not None
            ]
            result = service.close(snapshot=False)
            ranks = [graph.vertex_data(v) for v in inputs.graph.vertices]
            l1 = sum(abs(a - b) for a, b in zip(ranks, truth))
            t_verified = time.perf_counter()
        except BaseException:
            # Stop the workers before reporting the failure.
            try:
                service.close(snapshot=False)
            except Exception:  # noqa: BLE001 - the first error wins
                pass
            raise
        finally:
            if tracer is not None:
                tracer.restore()
        failed = step.shed + step.errors
        ok = l1 < SERVE_L1_BOUND and step.errors == 0
        lat = metrics.due_latencies(step.due, step.done)
        job = Job(
            ok=ok,
            traced=tracer is not None,
            setup_s=setup_s,
            run_s=t_verified - max(write_acks) if write_acks else 0.0,
            attempted=len(ops),
            failed=failed if ok else len(ops),
        )
        job.samples = {"lag": metrics.lateness(step.due, step.sent)}
        for kind in ("read", "write"):
            job.samples[f"{kind}@{rate}"] = [
                latency
                for op, latency in zip(ops, lat)
                if op.kind == kind and latency is not None
            ]
        job.layer = {
            "rate": float(rate),
            "shed": float(step.shed),
            "passed": float(
                metrics.step_passes(
                    rate,
                    lat,
                    metrics.backlog_at_end(step.due, step.done),
                    SERVE_LATENCY_LIMIT_S,
                )
            ),
        }
        if tracer is not None:
            job.layer.update(self.serve_layers(tracer, since, result))
            job.samples.update(self.serve_samples(tracer, since, tickets))
        return job

    @staticmethod
    def serve_samples(tracer, since, tickets) -> Dict[str, List[float]]:
        """Queue wait per ticket, batch sizes, barrier times, depths.

        The queue is FIFO and one thread submits, so the k-th barrier
        serves the next ``batch size`` tickets in submission order; a
        ticket's queue wait runs from its admission to the start of that
        barrier.
        """
        barriers = [
            s
            for s in tracer.named("engine.service_barrier", since)
            if s.tag
        ]
        waits: List[float] = []
        pos = 0
        for barrier in barriers:
            for ticket in tickets[pos:pos + barrier.tag]:
                waits.append(barrier.start - ticket.admitted)
            pos += barrier.tag
        rounds = tracer.named("transport.round", since)
        return {
            "queue_wait": waits,
            "batch": [float(b.tag) for b in barriers],
            "barrier": [b.seconds for b in barriers],
            "depth": [float(t.depth) for t in tickets],
            "round": [s.seconds for s in rounds],
        }

    @staticmethod
    def serve_layers(tracer, since, result) -> Dict[str, float]:
        rounds = tracer.named("transport.round", since)
        launch = tracer.named("transport.launch", since)
        pumps = tracer.named("engine.service_pump_round", since)
        layer = {
            "transport.launch_s": launch[0].seconds if launch else 0.0,
            "transport.rounds": float(len(rounds)),
            "transport.bytes": float(result.bytes_on_pipe),
            "engine.updates": float(result.num_updates),
            "serve.pump_rounds": float(len(pumps)),
            "serve.pump_s": _sum(pumps),
            "serve.schedule_s": _sum(
                tracer.named("engine.service_schedule", since)
            ),
        }
        for tag in ROUND_TAGS:
            layer[f"transport.round_s.{tag}"] = _sum(
                s for s in rounds if s.tag == tag
            )
        layer.update(worker_shares(result))
        layer.update(locking_layers(result))
        return layer


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (ChromaticPageRank(), LockingAls(), ServeMixed(), FaultPageRank())
}


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_jobs(
    workload: Workload, inputs: Any, truth: Any, tracer: Optional[Tracer]
) -> List[Job]:
    """One pass, each job under its own RSS sampler and CPU meter; an
    exception becomes a failed job with no timing.

    A job's workers are joined before it returns, so the CPU meter sees
    them as reaped children.
    """
    jobs = []
    for unit in workload.units():
        try:
            cpu0 = cpu_seconds()
            with RssSampler() as rss:
                job = workload.job(inputs, truth, tracer, unit)
            job.cpu_s = cpu_seconds() - cpu0
            job.rss_mb = rss.peak_mb
        except Exception as exc:  # noqa: BLE001 - reported as a failed job
            job = Job(ok=False, traced=tracer is not None, error=repr(exc))
            job.failed = job.attempted
        jobs.append(job)
    return jobs
