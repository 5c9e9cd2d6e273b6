"""Tests of the benchmark's metric arithmetic and bookkeeping.

They need no worker processes: the open-loop generator is driven
against a stub service, and the report folding against hand-made jobs.
"""

import json
import os
import threading
import time

import pytest

from perfbench import metrics
from perfbench.loadgen import Op, make_step, run_step
from perfbench.probes import Tracer
from perfbench.report import END_TO_END, PER_LAYER, end_to_end, serve_client
from perfbench.workloads import SERVE_STATED_RATE, WORKLOADS, Job
from repro.serve import Rejection

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Percentile sample rule.
# ----------------------------------------------------------------------
class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert metrics.beyond(1000, 99) == 10
        assert metrics.beyond(999, 99) == 9
        assert metrics.percentile(range(999), 99) is None
        assert metrics.percentile(range(1000), 99) == 989

    def test_tail_falls_back_and_says_so(self):
        value, level, n = metrics.tail([float(i) for i in range(200)])
        assert (level, n) == (95.0, 200)
        assert value == 189.0
        assert metrics.beyond(200, 95) == 10

    def test_tail_of_tiny_sample_is_its_maximum(self):
        assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
        assert metrics.tail([]) == (0.0, 0.0, 0)

    def test_reportable_p99_is_used_as_is(self):
        samples = [float(i) for i in range(2000)]
        assert metrics.tail(samples) == (1979.0, 99.0, 2000)


# ----------------------------------------------------------------------
# Due-time latency and the open-loop generator.
# ----------------------------------------------------------------------
class _Ticket:
    def __init__(self, delay):
        self._ready = time.perf_counter() + delay

    def wait(self, timeout=None):
        time.sleep(max(self._ready - time.perf_counter(), 0.0))
        return "reply"


class TestDueTimeLatency:
    def test_latency_counts_from_due_not_from_send(self):
        assert metrics.due_latencies([1.0, 2.0], [1.5, None]) == [0.5, None]
        assert metrics.lateness([1.0, 2.0], [1.25, 1.5]) == [0.25, 0.0]

    def test_a_stall_charges_the_requests_behind_it(self):
        # The first submit blocks for 50 ms; the next two were due 1 ms
        # and 2 ms after it, so they are late by ~49 and ~48 ms and that
        # wait is part of their latency, though the service answers
        # each instantly once it has it.
        calls = []

        def submit(request):
            calls.append(request)
            if len(calls) == 1:
                time.sleep(0.05)
            return _Ticket(0.0)

        ops = [Op(i * 0.001, "read", i) for i in range(3)]
        out = run_step(submit, ops)
        lat = metrics.due_latencies(out.due, out.done)
        assert lat[0] >= 0.05
        assert lat[1] >= 0.048 and lat[2] >= 0.047
        lag = metrics.lateness(out.due, out.sent)
        assert lag[1] >= 0.048

    def test_sheds_have_no_completion(self):
        def submit(request):
            return Rejection(429, "queue full")

        ops = [Op(0.0, "write", 0, value=1.0), Op(0.0, "read", 1)]
        out = run_step(submit, ops)
        assert out.shed == 2
        assert out.done == [None, None]

    def test_generator_is_a_single_thread(self):
        seen = set()

        def submit(request):
            seen.add(threading.get_ident())
            return _Ticket(0.0)

        run_step(submit, [Op(i / 5000.0, "read", 0) for i in range(20)])
        assert len(seen) == 1

    def test_schedule_is_seeded_and_evenly_spaced(self):
        import random

        a = make_step(random.Random(4), 2000.0, 500, 100, 0.2, 0.1)
        b = make_step(random.Random(4), 2000.0, 500, 100, 0.2, 0.1)
        assert a == b
        assert [op.due for op in a[:3]] == [0.0, 0.0005, 0.001]
        writes = sum(op.kind == "write" for op in a)
        assert 60 < writes < 140


# ----------------------------------------------------------------------
# The sustained-rate rule.
# ----------------------------------------------------------------------
class TestSustainedRule:
    def test_step_passes_only_without_sheds_and_within_limit(self):
        fast = [0.001] * 1000
        assert metrics.step_passes(1000, fast, backlog=2, limit_s=0.02)
        assert not metrics.step_passes(1000, fast + [None], 2, 0.02)
        slow = [0.001] * 980 + [0.05] * 20
        assert not metrics.step_passes(1000, slow, 2, 0.02)

    def test_growing_backlog_fails_the_step(self):
        fast = [0.001] * 1000
        # Little's law at the limit: 1000/s * 20 ms = 20 in flight.
        assert metrics.step_passes(1000, fast, backlog=20, limit_s=0.02)
        assert not metrics.step_passes(1000, fast, backlog=21, limit_s=0.02)

    def test_backlog_at_end_counts_outstanding_requests(self):
        due = [0.0, 1.0, 2.0]
        assert metrics.backlog_at_end(due, [0.5, 1.5, 2.5]) == 1
        assert metrics.backlog_at_end(due, [0.5, 3.0, None]) == 2

    def test_highest_rate_with_every_lower_rate_passing(self):
        steps = [(4000, False), (1000, True), (8000, True), (2000, True)]
        assert metrics.sustained_rate(steps) == 2000
        assert metrics.sustained_rate([(1000, False), (2000, True)]) == 0.0
        assert metrics.sustained_rate([(1000, True), (2000, True)]) == 2000


# ----------------------------------------------------------------------
# failed_frac and gates.
# ----------------------------------------------------------------------
def _job(ok=True, run_s=1.0, setup_s=0.5, failed=0, attempted=1, **kw):
    return Job(
        ok=ok,
        traced=False,
        setup_s=setup_s,
        run_s=run_s,
        cpu_s=2 * run_s,
        rss_mb=100.0,
        attempted=attempted,
        failed=failed,
        **kw,
    )


class TestFailedFrac:
    def test_fraction_of_attempted(self):
        assert metrics.failed_frac(8, 2) == 0.25
        assert metrics.failed_frac(5, 0) == 0.0
        with pytest.raises(ValueError):
            metrics.failed_frac(0, 0)
        with pytest.raises(ValueError):
            metrics.failed_frac(3, 4)

    def test_a_failed_gate_counts_and_yields_no_timing(self):
        jobs = [_job(run_s=1.0), _job(run_s=2.0)]
        jobs.append(_job(ok=False, run_s=99.0, failed=1))
        values, lines = end_to_end("chromatic_pagerank", jobs)
        assert values["cpu_s"] == (3.0, "s")
        assert "run_s: 1.500000 s  [median of 2]" in lines
        assert "failed_frac: 0.333333 ratio  [of 3 attempted]" in lines

    def test_sheds_count_as_failed_serving_operations(self):
        layer = {"rate": float(SERVE_STATED_RATE), "shed": 3.0, "passed": 0.0}
        job = _job(attempted=100, failed=3, layer=layer)
        job.samples = {f"read@{SERVE_STATED_RATE}": [0.001] * 77}
        _values, lines = end_to_end("serve_mixed", [job])
        assert "failed_frac: 0.030000 ratio  [of 100 attempted]" in lines
        values, _ = serve_client([job])
        assert values["serve.shed"] == 3.0
        assert values["serve.sustained_qps"] == 0.0


# ----------------------------------------------------------------------
# Span bookkeeping.
# ----------------------------------------------------------------------
class _Layer:
    def inner(self, x):
        return x + 1

    def outer(self, x):
        return self.inner(x) * 2


class TestTracer:
    def test_wrap_records_nested_spans_and_restores(self):
        layer = _Layer()
        tracer = Tracer()
        tracer.wrap(layer, "outer", "outer", tag=lambda args, kwargs: args[0])
        tracer.wrap(_Layer, "inner", "inner")
        assert layer.outer(3) == 8
        tracer.restore()
        outer, inner = tracer.spans
        assert (outer.name, outer.tag, outer.parent) == ("outer", 3, None)
        assert (inner.name, inner.parent) == ("inner", outer)
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert "outer" not in vars(layer)
        layer.outer(1)
        assert len(tracer.spans) == 2

    def test_interval_union_does_not_double_count(self):
        assert metrics.interval_union([(0, 2), (1, 3), (5, 6)]) == 4
        assert metrics.interval_union([]) == 0.0


# ----------------------------------------------------------------------
# BENCHMARK.json matches what the benchmark prints.
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == list(table)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    mapped = {name for group in layers.values() for name in group}
    assert mapped == {name for name, _u, _b in PER_LAYER}
