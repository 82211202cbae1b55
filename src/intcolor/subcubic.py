"""Interval coloring of properly 3-edge-colorable subcubic graphs.

Given a proper 3-edge-coloring and no odd-cycle component, an interval
coloring using at most 6 colors always exists.  The construction takes the
first color class as a matching M, colors the path/even-cycle components of
the rest alternately 2,3 anchored by an A/B vertex labeling of an auxiliary
graph, assigns 1 or 4 to matching edges with equal labels, and repairs the
few matching edges whose labels differ by locally recoloring with 0,1 or 5,4.
Only the supplied 3-edge-coloring is checked; callers certify the output.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .kernels import _as_coloring, color_paths_and_even_cycles, walk_degree_two
from .multigraph import EdgeColoring, GraphError, Multigraph, verify

A, B = 0, 1


@dataclass
class TGraph:
    """Auxiliary graph: red edges are matching edges; blue/green edges join the
    endpoints of an even/odd maximal path of the host minus the matching, with a
    back-reference to that path.  Max degree 2; the A/B labels arrive with the
    constraint pass."""
    red_at: dict[int, tuple[int, int]] = field(default_factory=dict)   # v -> (partner, eid)
    path_at: dict[int, tuple[int, int]] = field(default_factory=dict)  # v -> (other end, path idx)
    paths: list[tuple[list[int], list[int]]] = field(default_factory=list)
    labels: dict[int, int] = field(default_factory=dict)

    def vertices(self) -> set[int]:
        return set(self.red_at) | set(self.path_at)

    def t_degree(self, v: int) -> int:
        return (v in self.red_at) + (v in self.path_at)

    def adjacency(self, v: int) -> list[tuple[str, int, int]]:
        out: list[tuple[str, int, int]] = []
        if v in self.red_at:
            partner, eid = self.red_at[v]
            out.append(("r", partner, eid))
        if v in self.path_at:
            other, pidx = self.path_at[v]
            out.append(("p", other, pidx))
        return out

    def path_is_blue(self, pidx: int) -> bool:
        return len(self.paths[pidx][1]) % 2 == 0


@dataclass(frozen=True)
class _Repair:
    break_eid: int
    good_sequence: tuple[int, ...] | None = None   # expanded host cycle, when even
    pidx: int = -1
    v: int = -1
    u: int = -1
    dist: int = -1


def _reject_odd_cycle_components(g: Multigraph) -> None:
    t = g.traversal
    if any(t.is_odd_cycle(i) for i in range(len(t.components))):
        raise GraphError("a component is an odd cycle; not interval colorable")


def _build_tgraph(g: Multigraph, m_eids: list[int],
                  gm_paths: list[tuple[list[int], list[int]]]) -> TGraph:
    t = TGraph()
    for eid in m_eids:
        u, v = g.edges[eid]
        if u in t.red_at or v in t.red_at:
            raise AssertionError("matching class is not a matching")
        t.red_at[u] = (v, eid)
        t.red_at[v] = (u, eid)
    for vseq, eseq in gm_paths:
        idx = len(t.paths)
        t.paths.append((vseq, eseq))
        t.path_at[vseq[0]] = (vseq[-1], idx)
        t.path_at[vseq[-1]] = (vseq[0], idx)
    return t


def _edge_flips(t: TGraph, kind: str, ref: int) -> bool:
    # blue edges flip the label, red and green edges preserve it
    return kind == "p" and t.path_is_blue(ref)


def _cycle_walk(t: TGraph, start: int) -> list[tuple[str, int, int, int]]:
    """Closed walk of a degree-2 component: (kind, frm, to, ref) per step."""
    walk: list[tuple[str, int, int, int]] = []
    cur = start
    prev: tuple[str, int] | None = None
    while True:
        options = [e for e in t.adjacency(cur) if (e[0], e[2]) != prev]
        kind, nxt, ref = options[0]
        walk.append((kind, cur, nxt, ref))
        prev = (kind, ref)
        cur = nxt
        if cur == start:
            return walk


def _label_path_components(t: TGraph) -> None:
    for v0 in sorted(t.vertices()):
        if v0 in t.labels or t.t_degree(v0) != 1:
            continue
        t.labels[v0] = A
        cur, prev = v0, None
        while True:
            step = [e for e in t.adjacency(cur) if (e[0], e[2]) != prev]
            if not step:
                break
            kind, nxt, ref = step[0]
            t.labels[nxt] = t.labels[cur] ^ 1 if _edge_flips(t, kind, ref) else t.labels[cur]
            prev = (kind, ref)
            cur = nxt


def _propagate_around(t: TGraph, walk: list[tuple[str, int, int, int]],
                      skip: tuple[str, int] | None) -> None:
    if skip is not None:
        j = next(i for i, s in enumerate(walk) if (s[0], s[3]) == skip)
        walk = walk[j + 1:] + walk[:j]
    t.labels[walk[0][1]] = A
    for kind, frm, to, ref in walk:
        lab = t.labels[frm] ^ 1 if _edge_flips(t, kind, ref) else t.labels[frm]
        if to in t.labels and t.labels[to] != lab:
            raise AssertionError("inconsistent labels around an even-blue cycle")
        t.labels[to] = lab


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
                if u in t.red_at:
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


def _label_cycle_components(t: TGraph, g: Multigraph) -> list[_Repair]:
    repairs: list[_Repair] = []
    for v0 in sorted(t.vertices()):
        if v0 in t.labels:
            continue
        walk = _cycle_walk(t, v0)
        blue = sum(1 for kind, _, _, ref in walk if kind == "p" and t.path_is_blue(ref))
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
        partner, break_eid = t.red_at[v]
        _propagate_around(t, walk, skip=("r", break_eid))
        if t.labels[v] == t.labels[partner]:
            raise AssertionError("break edge labels should differ around an odd-blue cycle")
        if u not in t.labels:
            raise AssertionError("matching-covered path vertex must be labeled before cycles")
        want_equal = d % 2 == 0
        if (t.labels[u] == t.labels[v]) != want_equal:
            for w in {s[1] for s in walk}:
                t.labels[w] ^= 1
        repairs.append(_Repair(break_eid=break_eid, pidx=pidx, v=v, u=u, dist=d))
    return repairs


def color_subcubic(g: Multigraph, c3: EdgeColoring) -> EdgeColoring:
    """Interval coloring (at most 6 colors) of a subcubic graph with a proper
    3-edge-coloring and no odd-cycle component."""
    if g.max_degree > 3:
        raise GraphError("maximum degree must be at most 3")
    if not verify(g, c3, "proper").proper:
        raise GraphError("the supplied 3-edge-coloring is not proper")
    classes = sorted(set(c3.colors))
    if len(classes) > 3:
        raise GraphError("the supplied coloring uses more than 3 colors")
    _reject_odd_cycle_components(g)
    if g.max_degree <= 2:
        return color_paths_and_even_cycles(g)

    m_eids = [e for e in range(g.edge_count) if c3.colors[e] == classes[0]]
    m_set = set(m_eids)
    rest = [e for e in range(g.edge_count) if e not in m_set]
    gm_paths: list[tuple[list[int], list[int]]] = []
    gm_cycles: list[list[int]] = []
    for vseq, eseq, is_cycle in walk_degree_two(g, rest):
        if is_cycle:
            gm_cycles.append(eseq)
        else:
            gm_paths.append((vseq, eseq))

    t = _build_tgraph(g, m_eids, gm_paths)
    _label_path_components(t)
    repairs = _label_cycle_components(t, g)

    colors: dict[int, int] = {}
    for vseq, eseq in gm_paths:
        first = 2 if t.labels[vseq[0]] == A else 3
        for i, e in enumerate(eseq):
            colors[e] = first if i % 2 == 0 else 5 - first
        if colors[eseq[-1]] != (2 if t.labels[vseq[-1]] == A else 3):
            raise AssertionError("path alternation disagrees with its far endpoint label")
    for eseq in gm_cycles:
        for i, e in enumerate(eseq):
            colors[e] = 2 if i % 2 == 0 else 3

    deferred: set[int] = set()
    for eid in m_eids:
        u, v = g.edges[eid]
        lu, lv = t.labels[u], t.labels[v]
        if lu == lv:
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
        lu, lv = t.labels[rep.u], t.labels[rep.v]
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

    return _as_coloring(g, colors)
