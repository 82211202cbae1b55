#!/usr/bin/env python3
"""The intcolor benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  Jobs
run one at a time in this process (a closed loop with one client, no threads):
input text in, decomposition or timetable JSON text out.  Every output is
checked by ``check.py`` outside the timed region.  Runs are whole passes over
the workload's job set, at least ``MIN_JOBS`` jobs and at least ``--seconds``
of job time.

``--trace 0`` reports the end-to-end metrics of an untraced run.  ``--trace 1``
runs a third of the time untraced, then installs the span wrappers of
``spans.py`` and reports per-layer metrics per pass, plus the tracing overhead.
Per-layer counts and seconds are per pass over the job set.
``interactions.json`` says which end-to-end metric and workload each
per-layer metric should move, and where it should stay flat.

The last stdout line is the result; the line before it records the
environment and the workload, and both are also written under ``perfbench/out``
(with the spans of a traced run).  ``selftest.py`` shows that a corrupted
output is counted as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_JOBS = 100      # so that at least ten latency samples lie beyond p90
SETUP_REPS = 3


def import_library() -> float:
    """Import intcolor from this checkout's src/; return the seconds it took."""
    if not (SRC / "intcolor" / "__init__.py").is_file():
        raise SystemExit(f"intcolor sources not found under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    global graphio, thickness, timetable
    from intcolor import graphio, thickness, timetable
    elapsed = time.perf_counter() - t0
    if not Path(graphio.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported intcolor from {graphio.__file__}, not from {SRC}")
    return elapsed


def execute(job: gen.Job) -> tuple[str, int]:
    """One user request, text in to text out; returns the output and its bound."""
    if job.kind == "graph":
        g = graphio.graph_from_json(json.loads(job.text))
        d, trace = thickness.dispatch_theta_upper(g)
        return json.dumps(graphio.decomposition_to_json(d)), trace.bound_value
    matrix = timetable.RequirementMatrix.from_csv(job.text)
    schedule, trace = timetable.make_weekly_timetable(matrix, job.mode)
    return json.dumps(schedule.to_json()), trace.bound_value


def judge(job: gen.Job, output: str, bound: int) -> int:
    """Part count of a valid output within its bound; raises CheckFailed otherwise."""
    checker = check.check_decomposition if job.kind == "graph" else check.check_timetable
    parts = checker(job.text, output)
    if parts > bound:
        raise check.CheckFailed(f"{parts} parts exceed the reported bound {bound}")
    return parts


def set_up(workload: str, seed: int) -> list[gen.Job]:
    """Seeded inputs, then one warm-up job per family (its smallest instance)."""
    jobs = gen.make_jobs(workload, seed)
    smallest: dict[str, gen.Job] = {}
    for job in jobs:
        if job.family not in smallest or job.edges < smallest[job.family].edges:
            smallest[job.family] = job
    for job in smallest.values():
        execute(job)
    return jobs


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    edges_done: int = 0
    failures: list[str] = field(default_factory=list)
    parts: list[int] = field(default_factory=list)   # first pass, valid jobs
    passes: int = 0

    @property
    def edges_per_s(self) -> float:
        return self.edges_done / self.busy_s


def run_passes(jobs: list[gen.Job], seconds: float, min_jobs: int,
               tracer: spans.Tracer | None = None) -> Outcome:
    """Whole passes over jobs until both seconds of job time and min_jobs jobs are
    reached; each output is checked outside the timed region."""
    out = Outcome()
    while out.passes == 0 or out.busy_s < seconds or len(out.latencies) < min_jobs:
        for job in jobs:
            output = error = None
            if tracer is not None:
                tracer.job_id = len(out.latencies)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output, bound = execute(job)
                else:
                    output, bound = tracer.span(f"job.{job.kind}", execute, job)
            except Exception as exc:
                error = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            out.busy_s += dt
            out.latencies.append(dt)
            if error is None:
                try:
                    parts = judge(job, output, bound)
                except Exception as exc:
                    error = f"check failed: {type(exc).__name__}: {exc}"
            if error is not None:
                out.failures.append(f"{job.size_class}: {error}")
                continue
            out.edges_done += job.edges
            if out.passes == 0:
                out.parts.append(parts)
        out.passes += 1
    return out


def failed_fraction(outcomes) -> float:
    """Jobs that raised, failed the checker or exceeded their bound, over jobs attempted."""
    return sum(len(o.failures) for o in outcomes) / sum(len(o.latencies) for o in outcomes)


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system(), "seed": seed}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_library()
    setup_times = []
    texts = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        jobs = set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
        if texts is not None and texts != [j.text for j in jobs]:
            raise SystemExit("input generation is not deterministic for this seed")
        texts = [j.text for j in jobs]
    setup_s = import_s + statistics.median(setup_times)

    if args.trace:
        plain = run_passes(jobs, args.seconds / 3, 0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(jobs, args.seconds * 2 / 3, 0, tracer)
        finally:
            tracer.uninstall()
        outcomes = (plain, traced)
        edges_per_pass = sum(j.edges for j in jobs)
        layer = spans.layer_metrics(tracer, traced.passes, edges_per_pass)
        layer["trace.edges_per_s_untraced"] = plain.edges_per_s
        layer["trace.edges_per_s_traced"] = traced.edges_per_s
        layer["trace_overhead"] = traced.edges_per_s / plain.edges_per_s
        metrics = {k: metric(v, spans.unit(k)) for k, v in layer.items()}
    else:
        run = run_passes(jobs, args.seconds, MIN_JOBS)
        outcomes = (run,)
        lat = run.latencies
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "edges_per_s": metric(run.edges_per_s, "edges/s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "parts_total": metric(sum(run.parts), "count"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = sum(len(o.latencies) for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    record = {"environment": environment(args.seed),
              "workload": gen.describe(args.workload, args.seed, jobs),
              "trace": args.trace, "setup_s": {"import": import_s, "reps": setup_times},
              "passes": [o.passes for o in outcomes],
              "latency_samples": [len(o.latencies) for o in outcomes],
              "failed_fraction": failed_fraction(outcomes), "failures": failures[:20]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans"))
    stem.with_suffix(".json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
