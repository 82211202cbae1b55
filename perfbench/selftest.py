#!/usr/bin/env python3
"""Show that a corrupted output is counted as a failed job.

    python3 perfbench/selftest.py

Runs a few small graph and timetable jobs through the benchmark's own loop
twice: once as produced, once with one output of each kind corrupted after the
library returned it.  A graph output gets one edge recolored to the color of
another edge at the same vertex; a timetable output loses one lesson.  The
second run must count exactly those jobs in ``failed_fraction``.  Also checks
that the interaction table names every per-layer metric of BENCHMARK.json.
Exits 1 if anything fails.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import gen
import run


def corrupt_decomposition(graph_text: str, output: str) -> str:
    edges = [(e["u"], e["v"]) for e in json.loads(graph_text)["edges"]]
    out = json.loads(output)
    part, certs = out["part"], out["certificates"]
    members: dict[int, list[int]] = {}
    for eid, p in enumerate(part):
        members.setdefault(p, []).append(eid)
    for p, eids in members.items():
        at: dict[int, list[int]] = {}
        for pos, eid in enumerate(eids):
            for v in edges[eid]:
                at.setdefault(v, []).append(pos)
        for positions in at.values():
            if len(positions) >= 2:
                first, second = positions[:2]
                certs[p][second] = certs[p][first]
                return json.dumps(out)
    raise AssertionError("no vertex with two edges in one part")


def corrupt_timetable(output: str) -> str:
    days = json.loads(output)
    for day in days:
        for row in day:
            for h, teacher in enumerate(row):
                if teacher is not None:
                    row[h] = None
                    return json.dumps(days)
    raise AssertionError("empty timetable")


def corrupting(execute, victims: list[gen.Job]):
    """execute() that damages the outputs of the victim jobs."""
    def damaged(job: gen.Job):
        output, bound = execute(job)
        if not any(job is v for v in victims):
            return output, bound
        if job.kind == "graph":
            return corrupt_decomposition(job.text, output), bound
        return corrupt_timetable(output), bound
    return damaged


def interaction_table_complete() -> bool:
    here = Path(__file__).resolve().parent
    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    table = set(json.loads((here / "interactions.json").read_text())["metrics"])
    if declared != table:
        print(f"FAIL: interaction table and BENCHMARK.json differ on {sorted(declared ^ table)}")
    return declared == table


def main() -> int:
    if not interaction_table_complete():
        return 1
    run.import_library()
    graphs = sorted(gen.make_jobs("sparse", 0), key=lambda j: j.edges)[:3]
    tables = sorted(gen.make_jobs("timetable", 0), key=lambda j: j.edges)[:2]
    jobs = graphs + tables

    clean = run.run_passes(jobs, 0, 0)
    victims = [graphs[0], tables[0]]
    original = run.execute
    run.execute = corrupting(original, victims)
    try:
        damaged = run.run_passes(jobs, 0, 0)
    finally:
        run.execute = original

    clean_ff = run.failed_fraction([clean])
    damaged_ff = run.failed_fraction([damaged])
    print(f"clean run: failed_fraction {clean_ff} over {len(clean.latencies)} jobs")
    print(f"corrupted run: failed_fraction {damaged_ff} over {len(damaged.latencies)} jobs")
    for failure in damaged.failures:
        print(f"  counted: {failure}")
    expected = len(victims) / len(jobs)
    if clean_ff != 0 or damaged_ff != expected:
        print(f"FAIL: expected failed_fraction 0 then {expected}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
