"""Fold a run's jobs into the reported metrics.

:data:`END_TO_END` and :data:`PER_LAYER` are the metric tables that
``BENCHMARK.json`` declares (``test_bench_metrics`` keeps the two in
step). Every metric is reported for every workload; a per-layer metric
of a layer the workload does not use reads 0.

End-to-end values are medians over the successful untraced jobs.
Per-layer values come from the traced jobs: counts and times are
totals per job (per pass for serving, whose pass is one job per ladder
step), shares and ratios are medians over jobs, and percentiles pool
every traced sample. Serving latencies and the sustained rate describe
what a client sees, so they come from the untraced passes of the run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from perfbench import metrics
from perfbench.workloads import (
    SERVE_LATENCY_LIMIT_S,
    SERVE_RATES,
    SERVE_STATED_RATE,
    Job,
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_STEP_METRICS = tuple(
    (f"serve.step{rate}.read_p99_ms", "ms", "lower") for rate in SERVE_RATES
)

PER_LAYER = (
    ("transport.launch_s", "s", "lower"),
    ("transport.rounds", "count", "lower"),
    ("transport.bytes", "bytes", "lower"),
    ("transport.round_s.step", "s", "lower"),
    ("transport.round_s.lstep", "s", "lower"),
    ("transport.round_s.serve", "s", "lower"),
    ("transport.round_s.checkpoint", "s", "lower"),
    ("transport.round_s.restore", "s", "lower"),
    ("transport.round_s.collect", "s", "lower"),
    ("transport.round_p50_ms", "ms", "lower"),
    ("transport.round_p99_ms", "ms", "lower"),
    ("transport.recover_s", "s", "lower"),
    ("coord.self_s", "s", "lower"),
    ("chromatic.rounds_per_sweep", "ratio", "lower"),
    ("chromatic.rounds_saved", "count", "higher"),
    ("locking.rounds_per_update", "ratio", "lower"),
    ("locking.token_hops", "count", "lower"),
    ("engine.updates", "count", "lower"),
    ("worker.compute_share", "ratio", "higher"),
    ("worker.ghost_share", "ratio", "lower"),
    ("worker.ser_share", "ratio", "lower"),
    ("worker.idle_share", "ratio", "lower"),
    ("worker.snap_share", "ratio", "lower"),
    ("checkpoint.snapshots", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("fault.recovery_s", "s", "lower"),
    ("serve.read_p50_ms", "ms", "lower"),
    ("serve.read_p99_ms", "ms", "lower"),
    ("serve.write_p99_ms", "ms", "lower"),
    ("serve.sustained_qps", "1/s", "higher"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.batch_mean", "count", "higher"),
    ("serve.batch_p99", "count", "higher"),
    ("serve.barrier_p50_ms", "ms", "lower"),
    ("serve.barrier_p99_ms", "ms", "lower"),
    ("serve.queue_depth_p99", "count", "lower"),
) + _STEP_METRICS + (
    ("serve.pump_rounds", "count", "lower"),
    ("serve.pump_s", "s", "lower"),
    ("serve.schedule_s", "s", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.gen_lag_p99_ms", "ms", "lower"),
    ("trace.run_s_overhead", "s", "lower"),
    ("trace.read_p99_overhead_ms", "ms", "lower"),
    ("accounting.residual_s", "s", "lower"),
)

_UNITS = {name: unit for name, unit, _better in END_TO_END + PER_LAYER}

#: Per-layer values that are shares or ratios: medians, never summed.
_RATIOS = {name for name, unit, _better in PER_LAYER if unit == "ratio"}

Metrics = Dict[str, Tuple[float, str]]


def _ok(jobs: Sequence[Job], traced: bool) -> List[Job]:
    return [j for j in jobs if j.ok and j.traced == traced]


def _pool(jobs: Sequence[Job], key: str) -> List[float]:
    return [x for j in jobs for x in j.samples.get(key, ())]


def _tail(
    name: str, samples: Sequence[float], scale: float = 1e3
) -> Tuple[float, str]:
    """A tail value and its printed line, naming the percentile used."""
    value, level, n = metrics.tail(samples)
    note = f"p{level:g} of {n} samples"
    if level != 99.0:
        note += " (too few for p99)"
    unit = _UNITS.get(name, "ms")
    return value * scale, f"{name}: {value * scale:.4f} {unit}  [{note}]"


def serve_client(jobs: Sequence[Job]) -> Tuple[Dict[str, float], List[str]]:
    """Client-side serving numbers from successful step jobs."""
    by_rate: Dict[float, List[Job]] = defaultdict(list)
    for job in jobs:
        by_rate[job.layer["rate"]].append(job)
    stated = by_rate[SERVE_STATED_RATE]
    reads = _pool(stated, f"read@{SERVE_STATED_RATE}")
    values = {"serve.read_p50_ms": metrics.median(reads) * 1e3}
    lines = [
        f"serve.read_p50_ms: {values['serve.read_p50_ms']:.4f} ms  "
        f"[at {SERVE_STATED_RATE} q/s, {len(reads)} reads]"
    ]
    for op in ("read", "write"):
        name = f"serve.{op}_p99_ms"
        values[name], line = _tail(
            name, _pool(stated, f"{op}@{SERVE_STATED_RATE}")
        )
        lines.append(f"{line} at {SERVE_STATED_RATE} q/s")
    steps = []
    for rate in SERVE_RATES:
        group = by_rate[float(rate)]
        name = f"serve.step{rate}.read_p99_ms"
        values[name], line = _tail(name, _pool(group, f"read@{rate}"))
        lines.append(line)
        passed = bool(group) and all(j.layer["passed"] for j in group)
        steps.append((rate, passed))
    values["serve.sustained_qps"] = metrics.sustained_rate(steps)
    lines.append(
        f"serve.sustained_qps: {values['serve.sustained_qps']:g} 1/s  "
        f"[highest ladder rate with p99 <= "
        f"{SERVE_LATENCY_LIMIT_S * 1e3:g} ms, no sheds, no growing backlog]"
    )
    passes = max(len(jobs) / len(SERVE_RATES), 1)
    values["serve.shed"] = sum(j.layer["shed"] for j in jobs) / passes
    values["serve.gen_lag_p99_ms"], line = _tail(
        "serve.gen_lag_p99_ms", _pool(jobs, "lag")
    )
    lines.append(line)
    return values, lines


def end_to_end(
    workload: str, jobs: Sequence[Job]
) -> Tuple[Metrics, List[str]]:
    """Gated metrics of the untraced jobs, plus printed context."""
    ok = _ok(jobs, traced=False)
    fields = ("run_s", "setup_s", "cpu_s")
    values = {f: metrics.median(getattr(j, f) for j in ok) for f in fields}
    values["peak_rss_mb"] = metrics.median(j.rss_mb for j in ok)
    lines = [f"workload {workload}: {len(ok)} of {len(jobs)} jobs verified"]
    for name, unit in (("run_s", "s"),) + tuple(
        (n, u) for n, u, _b in END_TO_END
    ):
        lines.append(
            f"{name}: {values[name]:.6f} {unit}  [median of {len(ok)}]"
        )
    for f in fields:
        lines.append(
            f"jobs {f}: " + " ".join(f"{getattr(j, f):.3f}" for j in ok)
        )
    if workload == "serve_mixed":
        lines.append(f"heal_s: {values['run_s']:.6f} s  [run_s of serving]")
        lines.extend(serve_client(ok)[1])
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    lines.append(
        f"failed_frac: {metrics.failed_frac(attempted, failed):.6f} ratio  "
        f"[of {attempted} attempted]"
    )
    return {n: (values[n], u) for n, u, _b in END_TO_END}, lines


def per_layer(
    workload: str, jobs: Sequence[Job]
) -> Tuple[Metrics, List[str]]:
    """Per-layer metrics of the traced jobs, the accounting residual and
    the tracing overhead against the untraced jobs of the same run."""
    traced = _ok(jobs, traced=True)
    untraced = _ok(jobs, traced=False)
    values: Dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    lines = [
        f"workload {workload}: {len(traced)} traced and {len(untraced)} "
        "untraced jobs verified"
    ]
    serving = workload == "serve_mixed"
    passes = max(len(traced) / len(SERVE_RATES), 1)
    for key in {k for j in traced for k in j.layer} & set(values):
        column = [j.layer[key] for j in traced]
        if serving and key not in _RATIOS:
            values[key] = sum(column) / passes
        else:
            values[key] = metrics.median(column)
    rounds = _pool(traced, "round")
    values["transport.round_p50_ms"] = metrics.median(rounds) * 1e3
    values["transport.round_p99_ms"], line = _tail(
        "transport.round_p99_ms", rounds
    )
    lines.append(line)
    run_gap = metrics.median(j.run_s for j in traced) - metrics.median(
        j.run_s for j in untraced
    )
    values["trace.run_s_overhead"] = run_gap
    lines.append(
        f"tracing overhead: run_s {run_gap:+.6f} s "
        "(traced minus untraced median)"
    )
    if serving:
        client, client_lines = serve_client(untraced)
        values.update(client)
        lines.extend(client_lines)
        gap = serve_client(traced)[0]["serve.read_p99_ms"] - client[
            "serve.read_p99_ms"
        ]
        values["trace.read_p99_overhead_ms"] = gap
        lines.append(f"tracing overhead: read_p99_ms {gap:+.4f} ms")
        batches = _pool(traced, "batch")
        values["serve.batch_mean"] = metrics.mean(batches)
        barriers = _pool(traced, "barrier")
        values["serve.barrier_p50_ms"] = metrics.median(barriers) * 1e3
        for name, key, scale in (
            ("serve.batch_p99", "batch", 1.0),
            ("serve.queue_wait_p99_ms", "queue_wait", 1e3),
            ("serve.barrier_p99_ms", "barrier", 1e3),
            ("serve.queue_depth_p99", "depth", 1.0),
        ):
            values[name], line = _tail(name, _pool(traced, key), scale)
            lines.append(line)
    else:
        for i, job in enumerate(traced):
            residual = job.layer["accounting.residual_s"]
            lines.append(
                f"accounting job {i}: run_s {job.run_s:.6f} s = layers "
                f"{job.run_s - residual:.6f} s + residual {residual:+.6f} s"
            )
    for name, unit, _better in PER_LAYER:
        lines.append(f"{name}: {values[name]:.6g} {unit}")
    return {n: (values[n], u) for n, u, _b in PER_LAYER}, lines
