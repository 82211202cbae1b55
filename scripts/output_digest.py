#!/usr/bin/env python3
"""Fingerprint what the library returns on the benchmark's job sets.

For each seed (default 101 202) and each workload of perfbench/gen.py, run every
job once, as the benchmark does (graph JSON -> dispatch_theta_upper ->
decomposition JSON; requirement CSV -> make_weekly_timetable -> timetable JSON),
and print the job count, the parts total and a sha256 over each job's output
JSON and repr(BoundTrace).  A change that should not alter any result must
leave every line as it was:

    python scripts/output_digest.py 101 202

--workload NAME (repeatable) prints only the lines of the workloads named, so a
change confined to one workload is checked in a fraction of the time:

    python scripts/output_digest.py 101 202 --workload sparse
"""
import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py: the benchmark's seeded inputs)
from intcolor.graphio import decomposition_to_json, graph_from_json  # noqa: E402
from intcolor.thickness import dispatch_theta_upper  # noqa: E402
from intcolor.timetable import RequirementMatrix, make_weekly_timetable  # noqa: E402


def run_job(job: "gen.Job") -> tuple[str, object, int]:
    """(output JSON, trace, parts) for one job."""
    if job.kind == "graph":
        d, trace = dispatch_theta_upper(graph_from_json(json.loads(job.text)))
        return json.dumps(decomposition_to_json(d)), trace, d.part_count
    schedule, trace = make_weekly_timetable(RequirementMatrix.from_csv(job.text), job.mode)
    return json.dumps(schedule.to_json()), trace, schedule.day_count


def workload_digest(workload: str, seed: int) -> tuple[int, int, str]:
    """(job count, parts total, sha256 hex) of one workload's job set."""
    jobs = gen.make_jobs(workload, seed)
    h = hashlib.sha256()
    parts = 0
    for job in jobs:
        output, trace, n_parts = run_job(job)
        h.update(output.encode())
        h.update(b"\0")
        h.update(repr(trace).encode())
        h.update(b"\0")
        parts += n_parts
    return len(jobs), parts, h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="*", type=int, default=[101, 202])
    ap.add_argument("--workload", action="append", choices=gen.WORKLOADS,
                    help="print only this workload's lines (repeatable; default all)")
    args = ap.parse_args()
    workloads = [w for w in gen.WORKLOADS if args.workload is None or w in args.workload]
    for seed in args.seeds:
        for workload in workloads:
            jobs, parts, digest = workload_digest(workload, seed)
            print(f"seed {seed} {workload}: jobs {jobs} parts {parts} sha256 {digest}",
                  flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (piped into head, say): stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
