"""Interval coloring of properly 3-edge-colorable subcubic graphs.

Given a proper 3-edge-coloring and no odd-cycle component, an interval
coloring using at most 6 colors always exists.  The construction takes the
first color class as a matching M, colors the path/even-cycle components of
the rest alternately 2,3 anchored by an A/B vertex labeling of an auxiliary
graph, assigns 1 or 4 to matching edges with equal labels, and repairs the
few matching edges whose labels differ by locally recoloring with 0,1 or 5,4.
Only the supplied 3-edge-coloring is checked; callers certify the output.

subcubic_colors colors the edges eids of a host edge list, color_subcubic a
whole graph through it.  relabel renumbers the subset onto the vertices it
touches, so the checks and the construction run on flat lists of the subset's
size: properness is one set of (endpoint, color) pairs, odd-cycle components
are found by walking the edges between degree-2 vertices, and the auxiliary
graph and its labels are lists indexed by vertex.

Callers: the dispatcher's subcubic row (color_subcubic on a whole graph, and on
the even-cycle components a disconnected graph closes in one run) and the
general bound's three-class side (subcubic_colors on a group or a group
component).  decompose_bipartite does not call it: its classes are bipartite,
so thickness._class_pass reads the same construction, without the checks and
the repair, off one Konig coloring of all of them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .kernels import alternating_walk_colors, walk_degree_two
from .multigraph import EdgeColoring, GraphError, Multigraph, relabel

A, B = 0, 1


class OddCycleComponent(GraphError):
    """subcubic_colors refused a subset because one of its components is an
    odd cycle, which no interval coloring admits."""


@dataclass
class TGraph:
    """Auxiliary graph on the subset's vertices, as per-vertex lists with -1 for none.

    Red edges are the matching edges: v's partner is red_partner[v], joined by
    edge red_eid[v].  Each maximal path of the subset minus the matching joins
    its two ends by a blue edge when it has an even number of edges, else by a
    green one: path_end[v] is the other end of v's path, path_idx[v] its index
    in paths, and blue[i] whether path i is blue.  A vertex has at most one red
    and one path edge, so every walk alternates the two kinds and the graph has
    maximum degree 2.  labels[v] is A or B once the constraint pass reaches v,
    -1 before.
    """
    red_partner: list[int]
    red_eid: list[int]
    path_end: list[int]
    path_idx: list[int]
    paths: list[tuple[list[int], list[int]]]
    blue: list[bool]
    labels: list[int]


@dataclass(frozen=True)
class _Repair:
    break_eid: int
    good_sequence: tuple[int, ...] | None = None   # the expanded cycle, when even
    pidx: int = -1
    v: int = -1
    u: int = -1
    dist: int = -1


def _build_tgraph(edges: list[tuple[int, int]], n: int, m_eids: list[int],
                  gm_paths: list[tuple[list[int], list[int]]]) -> TGraph:
    t = TGraph([-1] * n, [-1] * n, [-1] * n, [-1] * n, gm_paths,
               [len(eseq) % 2 == 0 for _, eseq in gm_paths], [-1] * n)
    partner, red_eid = t.red_partner, t.red_eid
    for eid in m_eids:
        u, v = edges[eid]
        if partner[u] >= 0 or partner[v] >= 0:
            raise AssertionError("matching class is not a matching")
        partner[u], red_eid[u] = v, eid
        partner[v], red_eid[v] = u, eid
    path_end, path_idx = t.path_end, t.path_idx
    for idx, (vseq, _) in enumerate(gm_paths):
        a, b = vseq[0], vseq[-1]
        path_end[a], path_idx[a] = b, idx
        path_end[b], path_idx[b] = a, idx
    return t


def _cycle_walk(t: TGraph, start: int) -> list[tuple[str, int, int, int]]:
    """Closed walk of a degree-2 component, red edge first: (kind, frm, to, ref)
    per step."""
    walk: list[tuple[str, int, int, int]] = []
    cur = start
    while True:
        nxt = t.red_partner[cur]
        walk.append(("r", cur, nxt, t.red_eid[cur]))
        cur = t.path_end[nxt]
        walk.append(("p", nxt, cur, t.path_idx[nxt]))
        if cur == start:
            return walk


def _label_path_components(t: TGraph) -> None:
    """Label A at the smaller end of every path component of the auxiliary
    graph and carry the label along it, flipping it across each blue edge."""
    partner, path_end, path_idx, blue, labels = (t.red_partner, t.path_end, t.path_idx,
                                                 t.blue, t.labels)
    for v0 in range(len(labels)):
        red = partner[v0] >= 0
        if labels[v0] >= 0 or red == (path_end[v0] >= 0):
            continue        # labelled, or not an end: off the graph or of degree 2
        labels[v0] = lab = A
        cur = v0
        while True:
            if red:
                nxt = partner[cur]
            else:
                nxt = path_end[cur]
                if nxt >= 0 and blue[path_idx[cur]]:
                    lab ^= 1
            if nxt < 0:
                break
            labels[nxt] = lab
            cur, red = nxt, not red


def _propagate_around(t: TGraph, walk: list[tuple[str, int, int, int]],
                      skip: tuple[str, int] | None) -> None:
    if skip is not None:
        j = next(i for i, s in enumerate(walk) if (s[0], s[3]) == skip)
        walk = walk[j + 1:] + walk[:j]
    labels = t.labels
    labels[walk[0][1]] = A
    for kind, frm, to, ref in walk:
        # blue edges flip the label, red and green edges preserve it
        lab = labels[frm] ^ 1 if kind == "p" and t.blue[ref] else labels[frm]
        if labels[to] >= 0 and labels[to] != lab:
            raise AssertionError("inconsistent labels around an even-blue cycle")
        labels[to] = lab


def _expand_cycle(t: TGraph, walk: list[tuple[str, int, int, int]]) -> tuple[int, ...]:
    host_edges: list[int] = []
    for kind, frm, to, ref in walk:
        if kind == "r":
            host_edges.append(ref)
        else:
            vseq, eseq = t.paths[ref]
            host_edges.extend(eseq if frm == vseq[0] else list(reversed(eseq)))
    return tuple(host_edges)


def _choose_break(t: TGraph, walk: list[tuple[str, int, int, int]]) -> tuple[int, int, int, int]:
    """(pidx, v, u, dist) minimizing the distance from a path endpoint v to an
    internal matching-covered vertex u of the same path."""
    best: tuple[int, int, int, int, int] | None = None
    for order, (kind, _, _, ref) in enumerate(walk):
        if kind != "p":
            continue
        vseq, _ = t.paths[ref]
        length = len(vseq) - 1
        for side, v in ((0, vseq[0]), (1, vseq[-1])):
            for d in range(1, length):
                u = vseq[d] if side == 0 else vseq[length - d]
                if t.red_partner[u] >= 0:
                    cand = (d, order, side, ref, v)
                    if best is None or cand < best:
                        best = cand
                    break
    if best is None:
        raise AssertionError("odd cycle without a matching edge nearby; precondition violated")
    d, _, side, ref, v = best
    vseq, _ = t.paths[ref]
    u = vseq[d] if side == 0 else vseq[len(vseq) - 1 - d]
    return ref, v, u, d


def _label_cycle_components(t: TGraph) -> list[_Repair]:
    # after the path pass, an unlabelled vertex with a red edge lies on a cycle
    repairs: list[_Repair] = []
    labels = t.labels
    for v0 in range(len(labels)):
        if labels[v0] >= 0 or t.red_partner[v0] < 0:
            continue
        walk = _cycle_walk(t, v0)
        blue = sum(1 for kind, _, _, ref in walk if kind == "p" and t.blue[ref])
        if blue % 2 == 0:
            _propagate_around(t, walk, skip=None)
            continue

        host_len = sum(1 if kind == "r" else len(t.paths[ref][1])
                       for kind, _, _, ref in walk)
        if host_len % 2 == 0:
            # corresponds to an even host cycle: recolor it alternately later
            break_step = next(s for s in walk if s[0] == "r")
            _propagate_around(t, walk, skip=(break_step[0], break_step[3]))
            repairs.append(_Repair(break_eid=break_step[3],
                                   good_sequence=_expand_cycle(t, walk)))
            continue

        pidx, v, u, d = _choose_break(t, walk)
        partner, break_eid = t.red_partner[v], t.red_eid[v]
        _propagate_around(t, walk, skip=("r", break_eid))
        if labels[v] == labels[partner]:
            raise AssertionError("break edge labels should differ around an odd-blue cycle")
        if labels[u] < 0:
            raise AssertionError("matching-covered path vertex must be labeled before cycles")
        want_equal = d % 2 == 0
        if (labels[u] == labels[v]) != want_equal:
            for w in {s[1] for s in walk}:
                labels[w] ^= 1
        repairs.append(_Repair(break_eid=break_eid, pidx=pidx, v=v, u=u, dist=d))
    return repairs


def color_subcubic(g: Multigraph, c3: EdgeColoring) -> EdgeColoring:
    """Interval coloring (at most 6 colors) of a subcubic graph with a proper
    3-edge-coloring and no odd-cycle component."""
    if c3.graph is not g and c3.graph != g:
        raise GraphError("coloring belongs to a different graph")
    colors = subcubic_colors(g.edges, range(g.edge_count), c3.colors)
    return EdgeColoring(g, tuple(map(colors.__getitem__, range(g.edge_count))))


def subcubic_colors(edges: Sequence[tuple[int, int]], eids: Sequence[int],
                    c3: Sequence[int]) -> dict[int, int]:
    """Interval colors (at most 6, the smallest 1) of the edges eids of a host,
    keyed by host edge id, from their proper 3-edge-coloring c3 (c3[i] colors
    eids[i]); the subset must have maximum degree 3 and no odd-cycle component,
    which is refused by OddCycleComponent.  With eids ascending, the colors are
    color_subcubic's on the host's subgraph on eids."""
    kept, ends = relabel(edges, eids)
    degrees = Counter(ends)
    if max(degrees.values(), default=0) > 3:
        raise GraphError("maximum degree must be at most 3")
    # proper iff no (endpoint, color) pair repeats; a loop repeats its own
    if len(set(zip(ends, chain.from_iterable(zip(c3, c3))))) != len(ends):
        raise GraphError("the supplied 3-edge-coloring is not proper")
    classes = sorted(set(c3))
    if len(classes) > 3:
        raise GraphError("the supplied coloring uses more than 3 colors")
    local = list(zip(ends[::2], ends[1::2]))
    # a component is an odd cycle iff all its vertices have degree 2, so it is
    # an odd closed walk of the edges whose ends both have degree 2
    two = [e for e, (u, v) in enumerate(local) if degrees[u] == 2 and degrees[v] == 2]
    if any(is_cycle and len(eseq) % 2 for _, eseq, is_cycle in walk_degree_two(local, two)):
        raise OddCycleComponent("a component is an odd cycle; not interval colorable")
    if max(degrees.values(), default=0) <= 2:
        return alternating_walk_colors(edges, eids)

    matching = classes[0]
    m_eids = [e for e, c in enumerate(c3) if c == matching]
    rest = [e for e, c in enumerate(c3) if c != matching]
    gm_paths: list[tuple[list[int], list[int]]] = []
    gm_cycles: list[list[int]] = []
    for vseq, eseq, is_cycle in walk_degree_two(local, rest):
        if is_cycle:
            gm_cycles.append(eseq)
        else:
            gm_paths.append((vseq, eseq))

    t = _build_tgraph(local, len(kept), m_eids, gm_paths)
    _label_path_components(t)
    repairs = _label_cycle_components(t)
    labels = t.labels

    colors: list[int | None] = [None] * len(local)
    for vseq, eseq in gm_paths:
        first = 2 if labels[vseq[0]] == A else 3
        for e in eseq[::2]:
            colors[e] = first
        for e in eseq[1::2]:
            colors[e] = 5 - first
        if colors[eseq[-1]] != (2 if labels[vseq[-1]] == A else 3):
            raise AssertionError("path alternation disagrees with its far endpoint label")
    for eseq in gm_cycles:
        for e in eseq[::2]:
            colors[e] = 2
        for e in eseq[1::2]:
            colors[e] = 3

    deferred: set[int] = set()
    for eid in m_eids:
        u, v = local[eid]
        lu = labels[u]
        if lu == labels[v]:
            colors[eid] = 1 if lu == A else 4
        else:
            deferred.add(eid)
    if deferred != {r.break_eid for r in repairs}:
        raise AssertionError("unequal-label matching edges are not the cycle break edges")

    for rep in repairs:
        if rep.good_sequence is not None:
            for i, e in enumerate(rep.good_sequence):
                colors[e] = 2 if i % 2 == 0 else 3
            continue
        vseq, eseq = t.paths[rep.pidx]
        d = rep.dist
        if rep.v == vseq[0]:
            portion = list(reversed(eseq[:d]))       # from u toward v
        else:
            portion = eseq[len(eseq) - d:]
        lu, lv = labels[rep.u], labels[rep.v]
        if d % 2 == 0 and lu == lv == A:
            low, high, break_color = 0, 1, 2
        elif d % 2 == 0 and lu == lv == B:
            low, high, break_color = 5, 4, 3
        elif d % 2 == 1 and lu == A and lv == B:
            low, high, break_color = 0, 1, 1
        elif d % 2 == 1 and lu == B and lv == A:
            low, high, break_color = 5, 4, 4
        else:
            raise AssertionError("uncovered label/parity case in the repair step")
        for i, e in enumerate(portion):
            colors[e] = low if i % 2 == 0 else high
        colors[rep.break_eid] = break_color

    if None in colors:
        raise AssertionError("construction left edges uncolored")
    shift = 1 - min(colors)
    return {e: c + shift for e, c in zip(eids, colors)}
