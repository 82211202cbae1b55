"""Output checker that shares no code with ``intcolor``.

It re-parses the job's input and output text, so a fault in the library's own
verifiers or serializers cannot hide behind it.  Each checker returns the part
(day) count of a valid output and raises ``CheckFailed`` otherwise.
"""
from __future__ import annotations

import json


class CheckFailed(Exception):
    """The output does not solve the job's input."""


def _consecutive(values: list[int]) -> bool:
    s = sorted(values)
    return all(b == a + 1 for a, b in zip(s, s[1:]))


def check_decomposition(graph_text: str, output_text: str) -> int:
    """Parts cover every edge once; each part's coloring is interval at every vertex."""
    graph = json.loads(graph_text)
    n = graph["vertex_count"]
    edges = [(e["u"], e["v"]) for e in graph["edges"]]
    out = json.loads(output_text)
    part, certs = out["part"], out["certificates"]
    if len(part) != len(edges):
        raise CheckFailed(f"{len(part)} part labels for {len(edges)} edges")
    k = len(certs)
    members: list[list[int]] = [[] for _ in range(k)]
    for eid, p in enumerate(part):
        if not (isinstance(p, int) and 0 <= p < k):
            raise CheckFailed(f"edge {eid} has part {p!r} outside [0, {k})")
        members[p].append(eid)
    for p, (eids, colors) in enumerate(zip(members, certs)):
        if colors is None or len(colors) != len(eids):
            raise CheckFailed(f"part {p} has no coloring of its {len(eids)} edges")
        palette: list[list[int]] = [[] for _ in range(n)]
        # certificate colors follow the part's edges in ascending edge id
        for eid, c in zip(eids, colors):
            u, v = edges[eid]
            palette[u].append(c)
            palette[v].append(c)
        for v, pal in enumerate(palette):
            if len(set(pal)) != len(pal):
                raise CheckFailed(f"part {p}: vertex {v} repeats a color in {sorted(pal)}")
            if not _consecutive(pal):
                raise CheckFailed(f"part {p}: vertex {v} has a gap in {sorted(pal)}")
    return k


def check_timetable(csv_text: str, output_text: str) -> int:
    """Lecture counts match the matrix, no teacher is double-booked, and no class
    or teacher waits between two lessons of one day."""
    b = [[int(x) for x in line.split(",")] for line in csv_text.splitlines() if line.strip()]
    n, m = len(b), len(b[0])
    days = json.loads(output_text)
    counts = [[0] * m for _ in range(n)]
    for d, day in enumerate(days):
        if len(day) != n:
            raise CheckFailed(f"day {d} has {len(day)} class rows, expected {n}")
        teacher_periods: list[list[int]] = [[] for _ in range(m)]
        for i, row in enumerate(day):
            busy = []
            for h, j in enumerate(row):
                if j is None:
                    continue
                if not (isinstance(j, int) and 0 <= j < m):
                    raise CheckFailed(f"day {d}: class {i} meets unknown teacher {j!r}")
                counts[i][j] += 1
                busy.append(h)
                teacher_periods[j].append(h)
            if not _consecutive(busy):
                raise CheckFailed(f"day {d}: class {i} waits between lessons")
        for j, periods in enumerate(teacher_periods):
            if len(set(periods)) != len(periods):
                raise CheckFailed(f"day {d}: teacher {j} is booked twice in one period")
            if not _consecutive(periods):
                raise CheckFailed(f"day {d}: teacher {j} waits between lessons")
    if counts != b:
        raise CheckFailed("scheduled lectures differ from the requirement matrix")
    return len(days)
