"""Upper-bound decompositions into interval colorable subgraphs, plus a dispatcher.

Every decomposer returns a certified Decomposition: each edge carries its part
and its color within the part, and verify_decomposition checks the whole
labelling before it is returned.  Kernels do not check their own output, so
this is the one check on what they build.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .edge_coloring import (_KempeState, _coloring_state, _fan_state, _konig_state,
                            equalized_bipartite_color, petersen_two_factorization)
from .kernels import (IncrementalHost, _dfs_tree, _factor_walk, _tree_colors,
                      balanced_multipartite_colors, color_cactus, color_forest,
                      color_low_even_bipartite, latin_bipartite_colors,
                      staircase_bipartite_colors)
from .multigraph import (Decomposition, EdgeColoring, GraphError, Multigraph, bipartition,
                         normalize, relabel, require_bipartite, traverse, verify,
                         verify_decomposition)
from .oracles import (CHROMATIC_BUDGET, INTERVAL_BUDGET, exact_chromatic_index,
                      exact_interval_colorable)
from .subcubic import (OddCycleComponent, _slot_pass, _slot_state, color_subcubic,
                       subcubic_colors)


@dataclass(frozen=True)
class BoundTrace:
    """Audit record tying a decomposition to the bound it instantiates."""
    method: str
    bound_formula: str
    bound_value: int
    parts: int
    certified: bool

    def to_json(self) -> dict:
        return {"method": self.method, "bound_formula": self.bound_formula,
                "bound_value": self.bound_value, "parts": self.parts,
                "certified": self.certified}


def _certified(d: Decomposition) -> Decomposition:
    rep = verify_decomposition(d.graph, d)
    if not rep.interval:
        raise AssertionError(f"decomposition failed certification at vertices {rep.offending_vertices}")
    return d


def _assemble(g: Multigraph, part_color_dicts: list[dict[int, int]]) -> Decomposition:
    """Certified Decomposition from per-part host-edge color maps.

    Empty parts are dropped and each part's colors are shifted so its smallest is 1.
    """
    parts = [-1] * g.edge_count
    colors = [0] * g.edge_count
    for i, d in enumerate(d for d in part_color_dicts if d):
        shift = 1 - min(d.values())
        for eid, c in d.items():
            if parts[eid] != -1:
                raise AssertionError(f"edge {eid} assigned to two parts")
            parts[eid] = i
            colors[eid] = c + shift
    if -1 in parts:
        raise AssertionError("parts do not cover every edge")
    return _certified(Decomposition(g, tuple(parts), tuple(colors)))


def _one_part(col: EdgeColoring) -> Decomposition:
    """The whole graph as a single certified part colored by col."""
    g = col.graph
    return _certified(Decomposition(g, (0,) * g.edge_count, normalize(col).colors))


def _lift(g: Multigraph, eids: list[int],
          color: Callable[[Multigraph], EdgeColoring]) -> dict[int, int]:
    """Color the subgraph on eids with color(sub); the colors keyed by host edge id."""
    sub, ids = g.subgraph(eids)
    return dict(zip(ids, color(sub).colors))


# ---------------------------------------------------------------------------
# General bound via 5-class groups.

class _AbsorbStuck(Exception):
    pass


def _by_class(colors: Sequence[int], eids: list[int]) -> dict[int, int]:
    """Edges of at most two proper classes as one interval coloring: the
    smaller class 1, the other 2.  Each vertex meets each class at most once,
    so its palette is {1}, {2} or {1, 2}."""
    low = min(map(colors.__getitem__, eids), default=0)
    return {e: 1 if colors[e] == low else 2 for e in eids}


def _split_component(g: Multigraph, comp_edges: list[int], colors: Sequence[int],
                     h_classes: set[int], f_classes: set[int]) -> tuple[dict[int, int], list[int]]:
    """One group component into side A's colors and side B's edges.

    Side A is the 3-class subgraph: its components other than odd cycles are
    colored on the host by subcubic_colors.  When there are odd cycles, side A
    grows over the edges of the 2-class side B from the vertices of those
    components, taking B edges as pendants and attaching each odd cycle at the
    leaf where the growth reaches it.  Without such components the growth starts
    from one B edge that leaves an odd cycle; with none, the component is a lone
    odd cycle whose B edges are chords, and _AbsorbStuck lets the caller try
    another class split.  Side B is what remains of the 2-class edges, left for
    the caller to color by class.
    """
    h_edges = [e for e in comp_edges if colors[e] in h_classes]
    f_edges = [e for e in comp_edges if colors[e] in f_classes]
    t = traverse(g, f_edges)
    odd = [t.is_odd_cycle(i) for i in range(len(t.components))]
    rest = [i for i, is_odd in enumerate(odd) if not is_odd]

    a_colors: dict[int, int] = {}
    if rest:
        ids = sorted(itertools.chain.from_iterable(t.components[i] for i in rest))
        a_colors = subcubic_colors(g.edges, ids, [colors[e] for e in ids])
    if len(rest) == len(odd):
        return a_colors, h_edges

    host = IncrementalHost(g)
    for e, c in a_colors.items():
        host.add_colored(e, c)
    cycle_at = {v: t.components[i] for i, is_odd in enumerate(odd) if is_odd
                for v in t.vertices[i]}
    entering = [v for i in rest for v in t.vertices[i]]
    if not entering:
        seed = next((e for e in h_edges
                     if cycle_at.get(g.edges[e][0]) is not cycle_at.get(g.edges[e][1])), None)
        if seed is None:
            raise _AbsorbStuck
        host.add_colored(seed, 1)
        entering = list(g.edges[seed])
    host.grow(entering, set(h_edges), cycle_at)
    return host.color, [e for e in h_edges if e not in host.color]


def _class_splits(classes: list[int]) -> list[tuple[set[int], set[int]]]:
    """Candidate (2-class, 3-class) splits; the canonical first-two/last-three first."""
    out = [(set(classes[:2]), set(classes[2:]))]
    for size_h in range(min(2, len(classes)), -1, -1):
        if len(classes) - size_h > 3:
            continue
        for combo in itertools.combinations(classes, size_h):
            cand = (set(combo), set(classes) - set(combo))
            if cand not in out:
                out.append(cand)
    return out


def _side_a(edges: Sequence[tuple[int, int]], st: _KempeState, f_edges: list[int],
            classes: list[int]) -> dict[int, int] | None:
    """Side A's interval colors, unshifted, when some vertex meets three of the
    group's classes (read off st's used bits) and side A, the edges f_edges of
    all but the two smallest, has no odd-cycle component; else None.

    The slot state of _slot_pass covers only the vertices side A touches,
    renumbered by relabel, its classes ranked 1-3 in order.  _slot_state
    fills it from relabel's ends: that measured faster in CPython than
    gathering st's table entries for the same vertices."""
    kept, ends = relabel(edges, f_edges)
    mask, used = sum(1 << c for c in classes), st.used
    # a vertex meeting three of the group's classes meets one of side A's
    if all((used[v] & mask).bit_count() < 3 for v in kept):
        return None
    rank = dict(zip(classes[2:], (1, 2, 3)))
    colors3 = [rank[c] for c in map(st.colors.__getitem__, f_edges)]
    try:
        return dict(zip(f_edges, _slot_pass(*_slot_state(len(kept), ends, colors3))))
    except OddCycleComponent:
        return None


def _split_group(g: Multigraph, st: _KempeState, group_edges: list[int],
                 classes: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """One group's two sides, each as host-edge colors; classes are the group's
    classes in order.

    Side B is the group's two smallest classes and side A the rest; a group of
    at most two classes is side B whole.  When some vertex meets three of the
    group's classes and side A has no odd-cycle component, side A is one
    _slot_pass over state read off st and side B is colored by class.
    Otherwise the group is split one component at a time by _split_component,
    and each component's side B is colored by class.
    """
    colors = st.colors
    # side B holds the classes up to h_top, the larger of the two smallest
    h_top = classes[:2][-1]
    f_edges = [e for e in group_edges if colors[e] > h_top]
    if not f_edges:
        return {}, _by_class(colors, group_edges)
    # the component of a vertex meeting three classes has edges on both
    # canonical sides, so with no odd cycle to absorb the per-component split
    # gives two parts as well
    a_side = _side_a(g.edges, st, f_edges, classes)
    if a_side is not None:
        return a_side, _by_class(colors, [e for e in group_edges if colors[e] <= h_top])
    a_side = {}
    b_side: dict[int, int] = {}
    for comp in traverse(g, group_edges).components:
        present = sorted({colors[e] for e in comp})
        if len(present) <= 2:
            b_side.update(_by_class(colors, comp))
            continue
        for h_cls, f_cls in _class_splits(present):
            try:
                ca, cb = _split_component(g, comp, colors, h_cls, f_cls)
            except _AbsorbStuck:
                continue
            a_side.update(ca)
            b_side.update(_by_class(colors, cb))
            break
        else:
            raise GraphError("no class split absorbed every odd cycle of a component")
    return a_side, b_side


def _decompose_general(g: Multigraph, st: _KempeState) -> Decomposition:
    """decompose_general on the Kempe state of a proper coloring."""
    colors = st.colors
    classes = sorted(set(colors))
    group_of = {c: i // 5 for i, c in enumerate(classes)}
    groups: list[list[int]] = [[] for _ in range(-(-len(classes) // 5))]
    for e, c in enumerate(colors):
        groups[group_of[c]].append(e)
    return _assemble(g, [side for i, group_edges in enumerate(groups)
                         for side in _split_group(g, st, group_edges, classes[5 * i:5 * i + 5])])


def decompose_general(g: Multigraph, coloring: EdgeColoring) -> Decomposition:
    """At most 2*ceil(t/5) certified parts from a proper t-coloring, one fewer
    when t % 5 is 1 or 2.

    Classes are taken five at a time.  In each group the two smallest classes
    form side B and the rest, at most three, the subcubic side A.  Two proper
    classes are already an interval coloring, so side B is colored by class:
    the smaller 1, the other 2.  When some vertex meets three of the group's
    classes and side A has no odd-cycle component, side A is interval colored
    by one subcubic construction over the whole group.  Otherwise the group is
    split one component at a time: a component of at most two classes goes to
    side B whole; in the others the last three classes form side A, whose odd
    cycles are absorbed by one growth pass over the component's 2-class side
    (2-class edges hang off the host as pendants, and each odd cycle is
    attached at the leaf where the growth first reaches it), and another class
    split is tried where no growth can start.  Each group gives as many parts
    as splitting every one of its components would: the group-level split is
    taken only where both give two.

    Every group reads the coloring's Kempe state, filled once; the fill is the
    check that the coloring is proper.
    """
    if coloring.graph is not g and coloring.graph != g:
        raise GraphError("coloring belongs to a different graph")
    return _decompose_general(g, _coloring_state(g.vertex_count, g.edges, coloring.colors))


def _general_bound(t: int) -> tuple[int, str]:
    """decompose_general's part bound from a proper t-coloring, with its formula.

    Each full group of five classes gives two parts.  A last group of one or two
    classes gives one: its three-class side is empty and two proper classes
    hold no odd cycle.  A last group of three or four gives two."""
    bound = 2 * (t // 5) + (0, 1, 1, 2, 2)[t % 5]
    if t % 5 in (1, 2):
        return bound, f"2*floor({t}/5) + 1 = {bound}"
    return bound, f"2*ceil({t}/5) = {bound}"


# ---------------------------------------------------------------------------
# Bipartite decompositions.

def decompose_bipartite(g: Multigraph) -> Decomposition:
    """ceil(Delta/3) certified parts with per-vertex part degrees within one.

    The equalized k-coloring provides the parts; each part is bipartite with
    maximum degree 3, hence interval colorable.  Every class is colored in one
    pass: each edge is put on the (vertex, class) slots of its ends, numbered
    u*k + c and compacted by relabel (ascending, so each class keeps the host's
    vertex order), one Konig 3-coloring colors all slots, and the subcubic
    construction's _slot_pass reads the interval colors off its state; a
    bipartite class has no odd cycle, so the pass never repairs one.  Each
    class's colors are shifted so its smallest is 1.
    """
    require_bipartite(g)
    if g.edge_count == 0:
        return _assemble(g, [])
    k = -(-g.max_degree // 3)
    parts = [c - 1 for c in equalized_bipartite_color(g, k).colors]
    kept, ends = relabel([(u * k + c, v * k + c) for (u, v), c in zip(g.edges, parts)],
                         range(g.edge_count))
    st = _konig_state(len(kept), list(zip(ends[::2], ends[1::2])), 3)
    cubic_classes = {kept[s] % k for s, u in enumerate(st.used) if u == 14}
    colors = _slot_pass(st.edges, st.used, st.at, st.colors,
                        [w % k in cubic_classes for w in kept])
    # a cubic class whose matching edges all took 4 starts at 2
    low = set(range(k)) - set(itertools.compress(parts, map((1).__eq__, colors)))
    if low:
        colors = [c - (p in low) for p, c in zip(parts, colors)]
    return _certified(Decomposition(g, tuple(parts), tuple(colors)))


def decompose_eulerian_bipartite(g: Multigraph) -> Decomposition:
    """ceil(Delta/4) certified parts for an even-degree bipartite multigraph.

    Loops regularize its edge list, and Petersen 2-factors come back as
    even-cycle collections once loops are dropped.  Factors 2i and 2i+1 form
    part i, colored 1, 2 and 3, 4 by one _factor_walk over every factor's cycles."""
    require_bipartite(g)
    odd = next((v for v, d in enumerate(g.degrees) if d % 2), None)
    if odd is not None:
        raise GraphError(f"vertex {odd} has odd degree")
    if g.edge_count == 0:
        return _assemble(g, [])
    delta = g.max_degree
    extra: list[tuple[int, int]] = []
    for v in range(g.vertex_count):
        extra.extend((v, v) for _ in range((delta - g.degree(v)) // 2))
    factors = petersen_two_factorization(g.vertex_count, g.edges + tuple(extra))
    factor_of = [0] * (g.edge_count + len(extra))
    for f, eids in enumerate(factors):
        for e in eids:
            factor_of[e] = f
    del factor_of[g.edge_count:]     # the loops
    lows = [2 * (f % 2) for f in range(len(factors))]
    colors = _factor_walk(g.edges, g.vertex_count, factor_of, lows)
    return _certified(Decomposition(g, tuple(f // 2 for f in factor_of), tuple(colors)))


def _side_degrees(g: Multigraph) -> tuple[int, int]:
    """The one degree on each side of every component of a bipartite graph,
    smaller first, or (0, 0) without edges.  Each component is read off the
    traversal and oriented by its own degrees, so the side its smallest vertex
    lies on does not matter."""
    require_bipartite(g)
    t = g.traversal
    degrees, sides = g.degrees, t.sides
    pairs = set()
    for comp in t.vertices:
        degs = [{degrees[v] for v in comp if sides[v] == s} for s in (0, 1)]
        if len(degs[0]) > 1 or len(degs[1]) > 1:
            raise GraphError("sides are not regular")
        pairs.add(tuple(sorted(d.pop() for d in degs)))
    if len(pairs) > 1:
        raise GraphError(f"components differ in side degrees: {sorted(pairs)}")
    return next(iter(pairs), (0, 0))


def decompose_biregular(g: Multigraph) -> Decomposition:
    """(k,kr)-biregular (k >= 3, r >= 2): max(2, k-2) certified parts.

    One equalized k-coloring splits each big-side vertex into r degree-k copies,
    so the split graph is k-regular and every class meets each small-side vertex
    once and each big-side vertex r times: a star forest.  Every pair of classes
    is (2,2r)-biregular and one part.  Classes 1..s are star-forest parts
    (s = 1 for k = 3, else k-4) and the remaining two or four classes pair up."""
    k, big = _side_degrees(g)
    if k < 3 or big % k or big // k < 2:
        raise GraphError(f"degrees ({k},{big}) are not of (k,kr) shape with k>=3, r>=2")
    s = 1 if k == 3 else k - 4
    groups: list[list[int]] = [[] for _ in range(s + (k - s) // 2)]
    for e, c in enumerate(equalized_bipartite_color(g, k).colors):
        groups[c - 1 if c <= s else s + (c - s - 1) // 2].append(e)
    return _assemble(g, [_lift(g, eids, color_forest) for eids in groups[:s]]
                     + [_lift(g, eids, color_low_even_bipartite) for eids in groups[s:]])


# ---------------------------------------------------------------------------
# Complete multipartite families.

def multipartite_part_count(r: int) -> int:
    """T(r) = ceil(log2 r) for r >= 1: T(2)=1, T(r)=T(ceil(r/2))+1."""
    return (r - 1).bit_length()


def _multipartite_dicts(g: Multigraph, parts: list[list[int]]) -> list[dict[int, int]]:
    """One level per bit of the part index: an edge between parts p and q goes on
    the level of the highest bit b in which p and q differ, where the parts that
    agree with p above b form a block whose bit-b halves make a staircase-colored
    complete bipartite graph (each side counted from the start of its half), the
    blocks vertex-disjoint.  Every level has an edge: r > 2^(B-1) for B levels."""
    levels = multipartite_part_count(len(parts))
    start = list(itertools.accumulate(map(len, parts), initial=0))
    part, place = [0] * g.vertex_count, [0] * g.vertex_count
    for p, vs in enumerate(parts):
        for i, v in enumerate(vs, start[p]):
            part[v], place[v] = p, i
    out: list[dict[int, int]] = [{} for _ in range(levels)]
    for eid, (u, v) in enumerate(g.edges):
        p, q = part[u], part[v]
        b = (p ^ q).bit_length() - 1
        out[levels - 1 - b][eid] = (place[u] - start[p >> b << b]
                                    + place[v] - start[q >> b << b] + 1)
    return out


def _balanced_dicts(g: Multigraph, parts: list[list[int]]) -> list[dict[int, int]]:
    """K_{n*r} on the host's parts: one part when nr is even; else the first r-1
    parts (r-1 even) plus a staircase from them to the last part."""
    if len(parts[0]) * len(parts) % 2 == 0:
        return [balanced_multipartite_colors(g, parts)]
    rest = [v for p in parts[:-1] for v in p]
    return [balanced_multipartite_colors(g, parts[:-1]),
            staircase_bipartite_colors(g, rest, parts[-1])]


def _semiregular_dicts(g: Multigraph, small: list[list[int]],
                       big: list[int]) -> list[dict[int, int]]:
    """K_{n*r,nr} on the host's r small parts and its big part: the within edges
    below a latin cross block when nr is even (one part), else the within edges
    in two parts and the cross block as a third."""
    a_vertices = [v for p in small for v in p]
    n, r = len(small[0]), len(small)
    if n * r % 2 == 0:
        merged = latin_bipartite_colors(g, a_vertices, big, base=(r - 1) * n)
        merged.update(balanced_multipartite_colors(g, small))
        return [merged]
    return _balanced_dicts(g, small) + [latin_bipartite_colors(g, a_vertices, big)]


def decompose_forest_peel(g: Multigraph) -> Decomposition:
    """Repeatedly remove a DFS spanning forest: at most Delta parts, and on a
    bipartite graph at most the smaller of the two sides' maximum degrees.

    Each forest meets every vertex that still has an edge, so every round lowers
    all those degrees by one at least; either side of a bipartite graph meets
    every edge, so no edge is left once that side's degrees reach 0.  A forest
    is colored off its walk as color_forest colors it, by kernels._tree_colors."""
    remaining = set(range(g.edge_count))
    parts, colors = [0] * g.edge_count, [0] * g.edge_count
    rounds = 0
    while remaining:
        tree = _tree_colors(g.edges, *_dfs_tree(g, remaining), colors)
        for e in tree:
            parts[e] = rounds
        remaining.difference_update(tree)
        rounds += 1
    return _certified(Decomposition(g, tuple(parts), tuple(colors)))


# ---------------------------------------------------------------------------
# Cyclic interval split.

def split_cyclic(g: Multigraph, c: EdgeColoring, t: int) -> Decomposition:
    """Two certified parts from a cyclic interval t-coloring with t >= 2*Delta-2."""
    rep = verify(g, c, "cyclic", t=t)
    if not rep.cyclic_interval:
        raise GraphError("coloring is not a cyclic interval coloring")
    if t < 2 * g.max_degree - 2:
        raise GraphError(f"need t >= 2*Delta-2 = {2 * g.max_degree - 2}, got {t}")
    if rep.interval:
        return _one_part(c)
    k_star = l_star = 0
    for v in range(g.vertex_count):
        pal = set(c.palette(v))
        if not pal:
            continue
        spal = sorted(pal)
        if all(b == a + 1 for a, b in zip(spal, spal[1:])):
            continue
        k_v = 0
        while k_v + 1 in pal:
            k_v += 1
        l_v = 0
        while t - l_v in pal:
            l_v += 1
        k_star = max(k_star, k_v)
        l_star = max(l_star, l_v)
    if not k_star < t - l_star + 1:
        raise AssertionError("wrap palettes overlap; cyclic precondition violated")
    cut = t - l_star
    low = {e: c.colors[e] for e in range(g.edge_count) if c.colors[e] <= cut}
    high = {e: c.colors[e] - cut for e in range(g.edge_count) if c.colors[e] > cut}
    return _assemble(g, [low, high])

# ---------------------------------------------------------------------------
# Dispatcher.

def detect_complete_multipartite(g: Multigraph) -> list[list[int]] | None:
    """Vertex parts when g is a simple complete multipartite graph, else None;
    the parts come in order of their smallest vertex.

    A vertex of the smallest of r >= 2 parts sees the other parts, at least
    V - V/r >= V/2 vertices, so a graph with 2*Delta < V is rejected unscanned."""
    if g.edge_count == 0 or 2 * g.max_degree < g.vertex_count or not g.is_simple:
        return None
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    # a class of equal neighbourhood N with |N| + |class| = V has N = V - class,
    # as no vertex is its own neighbour, so the classes are the parts
    groups: dict[frozenset[int], list[int]] = {}
    for v, nbrs in enumerate(adj):
        groups.setdefault(frozenset(nbrs), []).append(v)
    if len(groups) < 2 or any(len(n) + len(p) != g.vertex_count for n, p in groups.items()):
        return None
    return list(groups.values())


def _dispatch_componentwise(g: Multigraph) -> tuple[Decomposition, BoundTrace]:
    """Dispatch g's components on compact subgraphs; part i of every component
    goes into part i of the whole.

    Three families take one part and are closed in batches, each by one row run
    on the union of its members: the tree components (E = V - 1) by the forest
    row, the even-cycle components (bipartite, all degrees 2) by the subcubic
    row, and the components that may be cacti (V <= E <= V - 1 + floor(V/2),
    Delta >= 3) by the cactus row.  Each of these rows colors every component
    of a union as it colors that component alone.  If the cactus row refuses
    the union, each of its members is dispatched alone, as is every other
    component; a refused forest or subcubic batch is a fault and propagates.
    The result is what one dispatch per component gives: the forest row
    refuses a cactus and the cactus row (next) refuses a cycle, and a one-part
    row meets lower = 1 (a cactus with Delta >= 3 is not overfull), so no later
    row would run on such a component.  The trace is the first component's, in
    component order, with the most parts.  The merge is not re-certified: each
    batch and each lone component was certified by the run that built it, and
    components share no vertex."""
    t = g.traversal
    rows = {"forest": _run_forest, "subcubic": _run_subcubic, "cactus": _run_cactus}
    batches: dict[str, list[list[int]]] = {method: [] for method in rows}
    alone: list[list[int]] = []
    for comp, verts, odd, side_max in zip(t.components, t.vertices, t.odd_cycles, t.side_max):
        e, v = len(comp), len(verts)
        if e == v - 1:
            batches["forest"].append(comp)
        elif e == v and odd is None and side_max == (2, 2):
            batches["subcubic"].append(comp)
        elif v <= e <= v - 1 + v // 2 and max(side_max) >= 3:
            batches["cactus"].append(comp)
        else:
            alone.append(comp)
    parts = [0] * g.edge_count
    colors = [0] * g.edge_count
    # each run's trace keyed by its smallest edge, which is its first component's
    traces: list[tuple[int, BoundTrace]] = []

    def merge(ids: Sequence[int], d_sub: Decomposition, t_sub: BoundTrace) -> None:
        for pos, eid in enumerate(ids):
            parts[eid] = d_sub.parts[pos]
            colors[eid] = d_sub.colors[pos]
        traces.append((ids[0], t_sub))

    for method, run in rows.items():
        if batches[method]:
            sub, ids = g.subgraph(itertools.chain.from_iterable(batches[method]))
            try:
                merge(ids, *_run_row(method, run, _Facts(sub)))
            except GraphError:
                if method != "cactus":
                    raise
                alone.extend(batches[method])
    for comp in alone:
        sub, ids = g.subgraph(comp)
        merge(ids, *_dispatch_connected(sub))
    decomp = Decomposition(g, tuple(parts), tuple(colors))
    worst = min(traces, key=lambda it: (-it[1].parts, it[0]))[1]
    if len(t.components) == 1:
        return decomp, worst
    trace = BoundTrace("componentwise",
                       f"max over {len(t.components)} components: {worst.method} "
                       f"[{worst.bound_formula}]",
                       worst.bound_value, decomp.part_count, True)
    return decomp, trace


class _Facts:
    """What the candidate rows read about one graph, each computed once per run
    on first read, so a row that reads none of them (forest) costs no pass."""

    def __init__(self, g: Multigraph) -> None:
        self.g = g

    @functools.cached_property
    def bipartite(self) -> bool:
        return bipartition(self.g) is not None

    @functools.cached_property
    def delta(self) -> int:
        return self.g.max_degree

    @functools.cached_property
    def lower(self) -> int:
        # an interval colorable graph has a proper Delta-coloring, whose classes are
        # matchings of at most floor(V/2) edges each, so an overfull graph
        # (E > Delta*floor(V/2); a regular graph of odd order, for one) needs two
        g = self.g
        return 2 if g.edge_count > self.delta * (g.vertex_count // 2) else 1

    @functools.cached_property
    def multipartite(self) -> list[list[int]] | None:
        return detect_complete_multipartite(self.g)

    @functools.cached_property
    def kempe(self) -> _KempeState:
        """The Kempe state of the run's one proper coloring: Konig's when
        bipartite, filled from a chromatic-index coloring of the exact oracle's
        proper sweep within its budget (its colors are 1..t already), else the
        fan engine's."""
        g = self.g
        if self.bipartite:
            return _konig_state(g.vertex_count, g.edges, self.delta)
        if g.edge_count <= CHROMATIC_BUDGET:
            return _coloring_state(g.vertex_count, g.edges, exact_chromatic_index(g)[1].colors)
        return _fan_state(g)

    @functools.cached_property
    def coloring(self) -> EdgeColoring:
        return EdgeColoring(self.g, tuple(self.kempe.colors))


# Each row returns (decomposition, bound, formula) or raises GraphError with the
# reason it does not apply.  Rows call decomposers and kernels through module
# globals at call time, so a caller that rebinds them sees every call.

def _run_forest(f: _Facts):
    if f.g.edge_count >= f.g.vertex_count:
        raise GraphError("a forest has fewer edges than vertices")
    return _one_part(color_forest(f.g)), 1, "forest: 1"


def _run_subcubic(f: _Facts):
    if f.delta > 3:
        raise GraphError("maximum degree is above 3")
    if f.coloring.colors_used() > 3:
        raise GraphError("no proper 3-edge-coloring found for this input")
    return _one_part(color_subcubic(f.g, f.coloring)), 1, "3-colorable subcubic: 1"


def _run_cactus(f: _Facts):
    g = f.g
    # a cactus has E = V - 1 + #cycles, its cycles vertex-disjoint
    if g.edge_count > g.vertex_count - 1 + g.vertex_count // 2:
        raise GraphError("too many edges for a cactus")
    # with Delta <= 2 a cycle is all the graph can hold: no walk needed to say so
    if f.delta <= 2 and g.edge_count >= g.vertex_count:
        raise GraphError("a bare cycle is not a cactus instance")
    return _one_part(color_cactus(g)), 1, "cactus: 1"


def _run_low_even(f: _Facts):
    if not f.bipartite or f.delta < 2 or f.delta % 2:
        raise GraphError("needs a bipartite graph of even maximum degree")
    return _one_part(color_low_even_bipartite(f.g)), 1, "degrees {1,2,2r} bipartite: 1"


def _run_interval_oracle(f: _Facts):
    if f.g.edge_count > INTERVAL_BUDGET:
        raise GraphError(f"more than {INTERVAL_BUDGET} edges for the exact search")
    witness = exact_interval_colorable(f.g)
    if witness is None:
        raise GraphError("graph is not interval colorable")
    return _one_part(witness), 1, "interval witness (exact search): 1"


def _run_balanced(f: _Facts):
    parts = f.multipartite
    if parts is None or len({len(p) for p in parts}) != 1:
        raise GraphError("graph is not a balanced complete multipartite graph")
    n, r = len(parts[0]), len(parts)
    decomp = _assemble(f.g, _balanced_dicts(f.g, parts))
    if n * r % 2 == 0:
        return decomp, 1, f"balanced K_{{{n}*{r}}}: 1 (nr even)"
    if n == 1:
        return decomp, 2, f"odd complete K_{r}: 2"
    return decomp, 2, f"balanced K_{{{n}*{r}}}: 2 (nr odd)"


def _run_semiregular(f: _Facts):
    parts = f.multipartite
    if parts is None:
        raise GraphError("graph is not complete multipartite")
    *small, big = sorted(parts, key=len)
    n, r = len(small[0]), len(small)
    if r < 2 or any(len(p) != n for p in small) or len(big) != n * r:
        raise GraphError("part sizes are not of K_{n*r,nr} shape")
    bound = 1 if (n * r) % 2 == 0 else 3
    return (_assemble(f.g, _semiregular_dicts(f.g, small, big)), bound,
            f"K_{{{n}*{r},{n * r}}}: {bound}")


def _run_multipartite(f: _Facts):
    parts = f.multipartite
    if parts is None:
        raise GraphError("graph is not complete multipartite")
    r = len(parts)
    bound = multipartite_part_count(r)
    return _assemble(f.g, _multipartite_dicts(f.g, parts)), bound, f"T({r}) = {bound}"


def _run_biregular(f: _Facts):
    k = _side_degrees(f.g)[0]
    bound = max(2, k - 2)
    return decompose_biregular(f.g), bound, f"max(2, {k}-2) = {bound}"


def _run_eulerian(f: _Facts):
    bound = -(-f.delta // 4)
    return decompose_eulerian_bipartite(f.g), bound, f"ceil({f.delta}/4) = {bound}"


def _run_bipartite_thirds(f: _Facts):
    bound = -(-f.delta // 3)
    return decompose_bipartite(f.g), bound, f"ceil({f.delta}/3) = {bound}"


def _run_general(f: _Facts):
    bound, formula = _general_bound(f.coloring.colors_used())
    return _decompose_general(f.g, f.kempe), bound, formula


def _run_forest_peel(f: _Facts):
    if not f.bipartite:
        bound, formula = f.delta, f"Delta = {f.delta}"
    else:
        side_max = f.g.traversal.side_max
        bound = min(max(m[s] for m in side_max) for s in (0, 1))
        formula = f"min-side max degree = {bound}"
    return decompose_forest_peel(f.g), bound, formula


# (method, floor, run) in priority order; floor(facts) is a proven lower bound on
# the row's own part count.  Floors: equalized classes are all non-empty at a
# vertex of degree Delta >= 4; on a bipartite graph the Konig coloring has Delta
# classes, all present at a vertex of degree Delta, and no odd cycle makes a
# class split borrow an edge, so five-class-general gives exactly
# _general_bound(Delta) parts; a forest on V vertices has at most V-1 edges.
CANDIDATES = (
    ("forest", lambda f: f.lower, _run_forest),
    ("cactus", lambda f: f.lower, _run_cactus),
    ("subcubic", lambda f: f.lower, _run_subcubic),
    ("low-even-bipartite", lambda f: f.lower, _run_low_even),
    ("interval-oracle", lambda f: f.lower, _run_interval_oracle),
    ("balanced-multipartite", lambda f: f.lower, _run_balanced),
    ("semiregular-multipartite", lambda f: f.lower, _run_semiregular),
    ("complete-multipartite", lambda f: f.lower, _run_multipartite),
    ("biregular", lambda f: f.lower, _run_biregular),
    ("eulerian-bipartite", lambda f: f.lower, _run_eulerian),
    ("bipartite-thirds", lambda f: -(-f.delta // 3), _run_bipartite_thirds),
    ("five-class-general",
     lambda f: _general_bound(f.delta)[0] if f.bipartite else f.lower, _run_general),
    ("forest-peel", lambda f: -(-f.g.edge_count // (f.g.vertex_count - 1)), _run_forest_peel),
)
METHODS = tuple(m for m, _, _ in CANDIDATES)


def _run_row(method: str, run, f: _Facts) -> tuple[Decomposition, BoundTrace]:
    """One row's certified result with its trace; a row above its own bound is a bug."""
    decomp, bound, formula = run(f)
    if decomp.part_count > bound:
        raise AssertionError(f"{method} gave {decomp.part_count} parts, above its bound {bound}")
    return decomp, BoundTrace(method, formula, bound, decomp.part_count, True)


def dispatch_theta_upper(g: Multigraph) -> tuple[Decomposition, BoundTrace]:
    """The fewest certified parts any candidate bound reaches, with its trace.

    Candidates run in CANDIDATES order and a later one replaces the best so far
    only with strictly fewer parts.  A candidate is skipped once the best has
    at most max(lower, floor) parts, where lower is a lower bound on theta_int
    (2 for an overfull graph, E > Delta*floor(V/2), else 1) and floor a proven
    lower bound on that candidate's own part count.  The skip is exact: a skipped
    candidate could at best tie, and ties go to the earlier candidate.

    Disconnected graphs are dispatched by component and the parts are merged,
    since interval colorability is decided component by component: the tree
    components are closed together by one forest run, the even-cycle
    components together by one subcubic run, the components that may be cacti
    together by one cactus run (each of them alone if that run refuses), and
    every other component alone.
    A graph with isolated vertices is dispatched without them, so they never
    change the answer.  A certification failure inside a candidate, or a
    candidate above its own bound, is a bug and propagates.

    When E = V - 1 the forest row runs before the traversal: if it succeeds the
    graph is acyclic with V - 1 edges, a spanning tree, on which the forest row
    is the first candidate and wins with one part.  If it finds a cycle the
    dispatch goes on as above."""
    if g.edge_count == 0:
        return _assemble(g, []), BoundTrace("empty", "no edges", 0, 0, True)
    if g.edge_count == g.vertex_count - 1:
        try:
            return _run_row("forest", _run_forest, _Facts(g))
        except GraphError:
            pass
    t = g.traversal
    if len(t.components) > 1 or len(t.vertices[0]) < g.vertex_count:
        return _dispatch_componentwise(g)
    return _dispatch_connected(g)


def _dispatch_connected(g: Multigraph) -> tuple[Decomposition, BoundTrace]:
    """The candidate rows on a connected graph without isolated vertices."""
    f = _Facts(g)
    best: tuple[Decomposition, BoundTrace] | None = None
    for method, floor, run in CANDIDATES:
        if best is not None and (best[0].part_count <= f.lower
                                 or best[0].part_count <= floor(f)):
            continue
        try:
            got = _run_row(method, run, f)
        except GraphError:      # BudgetExceeded and InfeasibleSpec included
            continue
        if best is None or got[0].part_count < best[0].part_count:
            best = got
    if best is None:
        raise AssertionError("no decomposition method certified")
    return best


def run_named_method(g: Multigraph, method: str) -> tuple[Decomposition, BoundTrace]:
    """The dispatcher for "auto", else the one candidate row of that name run on
    the whole graph; GraphError says why the row does not apply."""
    if method != "auto" and method not in METHODS:
        raise GraphError(f"unknown method {method!r}; have {', '.join(('auto',) + METHODS)}")
    if method == "auto" or g.edge_count == 0:
        return dispatch_theta_upper(g)
    run = next(run for m, _, run in CANDIDATES if m == method)
    return _run_row(method, run, _Facts(g))
