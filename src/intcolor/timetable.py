"""Requirement matrices, the bipartite lecture graph, and no-wait weekly timetables.

A requirement matrix B gives lecture counts b_ij between class i and teacher j.
A weekly timetable for k days places every lecture so that within any single
day no class and no teacher has an idle period between two busy ones; such a
timetable exists iff the lecture multigraph decomposes into k interval
colorable subgraphs, and the two directions of that equivalence are
implemented here as translations.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

from .multigraph import (Decomposition, GraphError, Multigraph, VerifyReport, _as_int,
                         verify_decomposition)
from .thickness import BoundTrace, _Facts, _run_bipartite_thirds, _run_row, dispatch_theta_upper


@dataclass(frozen=True)
class RequirementMatrix:
    b: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.b or not self.b[0]:
            raise GraphError("requirement matrix must have at least one row and column")
        width = len(self.b[0])
        for row in self.b:
            if len(row) != width:
                raise GraphError("ragged requirement matrix")
            if min(row) < 0:
                raise GraphError("lecture counts must be nonnegative")
            # each lecture is an edge, so a larger count cannot size the edge list
            if max(row) > sys.maxsize:
                raise GraphError(f"lecture counts must be at most {sys.maxsize}")

    @property
    def n_classes(self) -> int:
        return len(self.b)

    @property
    def m_teachers(self) -> int:
        return len(self.b[0])

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "RequirementMatrix":
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise GraphError("requirement matrix must be a list of rows of lecture counts")
        return RequirementMatrix(tuple(tuple(_as_int(x) for x in row) for row in rows))

    @staticmethod
    def from_csv(text: str) -> "RequirementMatrix":
        rows = [line.split(",") for line in text.splitlines() if line.strip()]
        try:
            b = tuple(tuple(map(int, row)) for row in rows)
        except ValueError:      # from_rows names the first cell that is no integer
            return RequirementMatrix.from_rows(rows)
        return RequirementMatrix(b)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.b) + "\n"


@dataclass(frozen=True)
class Timetable:
    """k daily grids; days[l][i][h] is the teacher index class i meets in period
    h+1 of day l+1, or None when the class is free."""
    days: tuple[tuple[tuple[int | None, ...], ...], ...]

    @property
    def day_count(self) -> int:
        return len(self.days)

    def to_json(self) -> list:
        return [[list(row) for row in day] for day in self.days]

    @staticmethod
    def from_json(obj: list) -> "Timetable":
        """Inverse of to_json: a list of days, each a list of class rows of
        teacher indices or null."""
        if not isinstance(obj, list):
            raise GraphError(f"timetable JSON must be a list of days, got {obj!r}")
        for day in obj:
            if not isinstance(day, list) or not all(isinstance(row, list) for row in day):
                raise GraphError(f"a timetable day must be a list of class rows, got {day!r}")
        return Timetable(tuple(tuple(tuple(x if x is None else _as_int(x) for x in row)
                                     for row in day) for day in obj))


def build_requirement_graph(B: RequirementMatrix) -> Multigraph:
    """Bipartite multigraph: class i and teacher j joined by b_ij parallel edges."""
    n, m = B.n_classes, B.m_teachers
    edges: list[tuple[int, int]] = []
    for i, row in enumerate(B.b):
        for j, c in enumerate(row):
            if c:
                edges += [(i, n + j)] * c
    return Multigraph(n + m, tuple(edges))


def decomposition_to_timetable(B: RequirementMatrix, d: Decomposition) -> Timetable:
    """Day l, period h, class i meets teacher j iff part l colors an (i,j) edge h.

    Periods start at 1, so a part with a color below 1 is refused."""
    g = build_requirement_graph(B)
    if d.graph != g:
        raise GraphError("decomposition does not belong to this requirement graph")
    if not verify_decomposition(g, d).interval:
        raise GraphError("decomposition is not certified")
    # the first part colored below 1, with its smallest color
    low = min(((p, h) for p, h in zip(d.parts, d.colors) if h < 1), default=None)
    if low is not None:
        raise GraphError(f"part {low[0]} has smallest color {low[1]}; periods start at 1")
    return _timetable(B, d)


def _timetable(B: RequirementMatrix, d: Decomposition) -> Timetable:
    """decomposition_to_timetable of a decomposition certified on B's requirement
    graph, whose edges all run from class i to teacher vertex n + j."""
    n = B.n_classes
    periods = [0] * d.part_count
    for part, h in zip(d.parts, d.colors):
        if h > periods[part]:
            periods[part] = h
    grids: list[list[list[int | None]]] = [[[None] * k for _ in range(n)] for k in periods]
    for (i, v), part, h in zip(d.graph.edges, d.parts, d.colors):
        row = grids[part][i]
        if row[h - 1] is not None:
            raise AssertionError("two lectures in one period for one class")
        row[h - 1] = v - n
    return Timetable(tuple(tuple(map(tuple, grid)) for grid in grids))


def timetable_to_decomposition(B: RequirementMatrix, S: Timetable) -> Decomposition:
    """Inverse translation: day l is part l and period h color h; parallel (i,j)
    lectures consume edge ids in order.  A wait or a clash raises GraphError
    naming the requirement-graph vertices (classes, then teachers) at fault."""
    g = build_requirement_graph(B)
    n = B.n_classes
    queues: dict[tuple[int, int], list[int]] = {}
    for eid in reversed(range(g.edge_count)):
        u, v = g.edges[eid]
        queues.setdefault((u, v - n), []).append(eid)
    parts = [0] * g.edge_count
    colors = [0] * g.edge_count
    for day_index, day in enumerate(S.days):
        for i, row in enumerate(day):
            for h, j in enumerate(row, start=1):
                if j is None:
                    continue
                if not queues.get((i, j)):
                    raise GraphError(f"timetable schedules more ({i},{j}) lectures than required")
                eid = queues[(i, j)].pop()
                parts[eid], colors[eid] = day_index, h
    if any(queues.values()):
        raise GraphError("timetable misses some required lectures")
    d = Decomposition(g, tuple(parts), tuple(colors))
    rep = verify_decomposition(g, d)
    if not rep.interval:
        raise GraphError("timetable has a wait or a clash at vertices "
                         f"{', '.join(map(str, rep.offending_vertices))}")
    return d


def verify_timetable(B: RequirementMatrix, S: Timetable) -> VerifyReport:
    """Totals, per-period distinctness, and the two-sided no-interruption condition,
    in one pass per day with a busy-period bitmask per teacher and the first and
    last period and a count per class row.

    In the report, 'proper' covers the totals and distinctness conditions and
    'interval' additionally requires no interruptions; offending parties are
    listed as vertices of the requirement graph (classes then teachers).
    """
    n, m = B.n_classes, B.m_teachers
    ok_counts = True
    ok_gapless = True
    offenders: set[int] = set()

    counts = [[0] * m for _ in range(n)]
    for day in S.days:
        if len(day) != n:
            raise GraphError("day grid must have one row per class")
        masks = [0] * m
        for i, row in enumerate(day):
            tally = counts[i]
            first = last = -1
            busy = 0
            for h, j in enumerate(row):
                if j is None:
                    continue
                if not 0 <= j < m:
                    raise GraphError(f"unknown teacher index {j}")
                tally[j] += 1
                if first < 0:
                    first = h
                last = h
                busy += 1
                bit = 1 << h
                if masks[j] & bit:                  # two classes in one period
                    ok_counts = False
                    offenders.add(n + j)
                masks[j] |= bit
            if busy and last - first + 1 != busy:
                ok_gapless = False
                offenders.add(i)
        for j, mask in enumerate(masks):
            if mask:
                x = mask // (mask & -mask)      # the busy periods shifted down to bit 0
                if x & (x + 1):                 # not 2^k - 1: a free period inside
                    ok_gapless = False
                    offenders.add(n + j)
    for i, (tally, row) in enumerate(zip(counts, B.b)):
        if tuple(tally) != row:
            for j, (have, want) in enumerate(zip(tally, row)):
                if have != want:
                    ok_counts = False
                    offenders.update((i, n + j))

    return VerifyReport(proper=ok_counts, interval=ok_counts and ok_gapless,
                        cyclic_interval=None,
                        offending_vertices=tuple(sorted(offenders)),
                        offending_edges=())


def make_weekly_timetable(B: RequirementMatrix, mode: str = "fewest_days",
                          ) -> tuple[Timetable, BoundTrace]:
    """No-wait weekly timetable: dispatcher-chosen day count, or the even spread
    with ceil(Delta/3) days and daily loads within one of each other."""
    g = build_requirement_graph(B)
    if mode == "fewest_days":
        d, trace = dispatch_theta_upper(g)
    elif mode == "even_spread":
        d, trace = _run_row("even-spread", _run_bipartite_thirds, _Facts(g))
    else:
        raise GraphError(f"unknown mode {mode!r}")
    S = _timetable(B, d)
    rep = verify_timetable(B, S)
    if not rep.interval:
        raise AssertionError("constructed timetable failed verification at vertices "
                             f"{', '.join(map(str, rep.offending_vertices))}")
    return S, trace


def daily_loads(S: Timetable, n_classes: int, m_teachers: int) -> tuple[list[list[int]], list[list[int]]]:
    """Per-day lesson counts: (class_loads[i][day], teacher_loads[j][day])."""
    cl = [[0] * S.day_count for _ in range(n_classes)]
    tl = [[0] * S.day_count for _ in range(m_teachers)]
    for l, day in enumerate(S.days):
        for i, row in enumerate(day):
            for j in row:
                if j is not None:
                    cl[i][l] += 1
                    tl[j][l] += 1
    return cl, tl


def render_timetable(S: Timetable) -> str:
    """Human-readable grid, one block per day."""
    if not S.days:
        return "(empty timetable)\n"
    out = []
    for l, day in enumerate(S.days, start=1):
        periods = max((len(row) for row in day), default=0)
        out.append(f"Day {l}")
        header = "      " + " ".join(f"p{h+1:<3d}" for h in range(periods))
        out.append(header)
        for i, row in enumerate(day):
            cells = " ".join(f"P{j+1:<3d}" if j is not None else ".   " for j in row)
            out.append(f"J{i+1:<4d} {cells}")
    return "\n".join(out) + "\n"
