"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chromatic_pagerank --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``chromatic_pagerank``, ``locking_als``, ``serve_mixed`` and
``fault_pagerank`` (see ``perfbench/workloads.py`` and ``BENCHMARK.json``).
The seed drives every input; inputs and oracles are built before any
timer starts. Jobs then repeat until ``--seconds`` have passed, and each
metric is the median over jobs.

``--trace 0`` runs untraced jobs and reports the end-to-end metrics
(``setup_s``, ``cpu_s``, ``peak_rss_mb``; it also prints wall-clock
``run_s`` and, for serving, the client latencies and sustained rate).
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics from the traced ones, the accounting residual and the
tracing overhead (traced minus untraced). Spans are written to
``.perfbench_out/`` at the end.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every oracle check passed. Every process the run started (workers,
oracle pools, the ``multiprocessing`` resource tracker) has ended before
the script exits. Without the program's sources (``src/repro``
next to this directory) the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: Jobs (serving: passes) a run makes even when ``--seconds`` is short.
MIN_PASSES = 2


def _setup_paths() -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: program sources not found under {ROOT}/src",
            file=sys.stderr,
        )
        sys.exit(2)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _setup_paths()

    from perfbench.probes import stop_children

    try:
        return _run(args)
    finally:
        stop_children()


def _run(args: argparse.Namespace) -> int:
    from perfbench import report
    from perfbench.probes import Tracer
    from perfbench.workloads import WORKLOADS, timed_jobs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; expected one "
            f"of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    # Keep every temporary file (snapshots, multiprocessing state)
    # inside the checkout.
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        inputs = workload.make_inputs(args.seed)
        truth = workload.oracle(inputs)
        tracer = Tracer() if args.trace else None
        jobs = []
        passes = 0
        deadline = time.perf_counter() + args.seconds
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            # Traced runs alternate, starting untraced, so both halves
            # see the same warm-up and the overhead compares like with
            # like.
            traced = tracer if args.trace and passes % 2 == 1 else None
            jobs.extend(timed_jobs(workload, inputs, truth, traced))
            passes += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics, lines = report.per_layer(workload.name, jobs)
        os.makedirs(OUT_DIR, exist_ok=True)
        name = f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(
            os.path.join(OUT_DIR, name),
            {"workload": workload.name, "seed": args.seed},
        )
    else:
        metrics, lines = report.end_to_end(workload.name, jobs)
    for line in lines:
        print(line)
    for job in jobs:
        if job.error:
            print(f"job error: {job.error}")
    correct = all(job.ok for job in jobs)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(job.attempted for job in jobs),
                "failed": sum(job.failed for job in jobs),
                "metrics": {
                    name: _metric(value, unit)
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
