"""Exponential-time exact references at desk scale.

Both coloring oracles run one search, `_color_sweep`: it walks colors 1, 2, ...
and picks one matching per color, each vertex being one that must be matched,
may be matched or must not be.  The interval rule starts vertices freely and
keeps started ones matched until done, with no empty color; the cyclic rule has
exactly t colors, empty ones allowed, and lets a vertex matched at color 1 pause
once and wrap around to finish at color t.  Failed states are remembered.

No construction stands in for the search: the interval oracle refutes a component
whose chromatic index exceeds its maximum degree (an interval colorable graph has
chromatic index equal to its maximum degree, Asratian & Kamalian 1987) and
otherwise sweeps, so the constructions are tested against an independent search.

Budgets are hard limits with explicit errors, never silent truncation.
Witnesses are always checked by `verify` before they are returned.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable

from .edge_coloring import BudgetExceeded, exact_chromatic_index
from .multigraph import EdgeColoring, GraphError, Multigraph, verify

INTERVAL_BUDGET = 16
THETA_BUDGET = 10
ARBORICITY_BUDGET = 14

__all__ = [
    "BudgetExceeded", "exact_chromatic_index", "exact_interval_colorable",
    "exact_theta", "nash_williams_arboricity", "exact_cyclic_interval_coloring",
]


def _color_sweep(sub: Multigraph, t: int | None = None) -> list[int] | None:
    """Search a connected graph for an interval coloring (t None) or a cyclic
    interval t-coloring, one color at a time.

    Color c is a matching.  At each color a vertex must be matched, may be matched
    or must not be; the two rules below differ only in that choice.

    Interval rule: a vertex with an edge colored and an edge left must be matched,
    and one with no edge colored may start.  This is exactly an interval coloring
    with smallest color 1: the colors of a connected graph's interval coloring form
    one interval, so no color is empty.  What may still happen after a color depends
    only on the edges left (they fix which vertices have started), not on c.

    Cyclic rule: there are t colors and a color may be empty.  A cyclic interval
    without color 1 is a plain interval, so a vertex first matched after color 1 runs
    until it is done.  One with color 1 is 1..b, then, after one pause with r edges
    left, t-r+1..t: it must not be matched from its pause to color t-r+1 and must be
    matched from then on.  A vertex with more edges left than colors left is a dead
    end.  Rotating the colors keeps every palette cyclic, so the first vertex is
    matched at color 1.  What may still happen depends on c and on which vertices
    were matched at color 1, as well as on the edges left.

    Either way a failed state is remembered and never searched again.
    """
    deg = sub.degrees
    pairs = sorted(Counter(tuple(sorted(e)) for e in sub.edges).items())
    left = [k for _, k in pairs]
    rem = list(deg)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(sub.vertex_count)]
    for p, ((u, v), _) in enumerate(pairs):
        incident[u].append((p, v))
        incident[v].append((p, u))
    order = sorted((v for v in range(sub.vertex_count) if deg[v]), key=lambda v: -deg[v])
    failed: set[tuple] = set()
    matchings: list[list[int]] = []

    def color_from(c: int, first: frozenset[int]) -> bool:
        # first: the vertices matched at color 1 (cyclic rule only)
        if not any(rem):
            return True
        if t is None:
            key: tuple = tuple(left)
            must = [r < d for r, d in zip(rem, deg)]
            decided: set[int] = set()
        else:
            room = t - c + 1
            if max(rem) > room:
                return False
            key = (c, tuple(left), first)
            must = [r == room or (r < d and v not in first)
                    for v, (r, d) in enumerate(zip(rem, deg))]
            must[order[0]] |= c == 1
            # matched at color 1 but not at every color since: paused
            decided = {v for v in first if rem[v] < room and deg[v] - rem[v] < c - 1}
        if key in failed:
            return False
        matching: list[int] = []

        def close_color() -> bool:
            if t is None and not matching:
                return False
            matchings.append(list(matching))
            if color_from(c + 1, first if c > 1 else
                          frozenset(v for v in order if rem[v] < deg[v])):
                return True
            matchings.pop()
            return False

        def extend(i: int) -> bool:
            while i < len(order) and (order[i] in decided or not rem[order[i]]):
                i += 1
            if i == len(order):
                return close_color()
            v = order[i]
            decided.add(v)
            for p, u in incident[v]:
                if left[p] and rem[u] and u not in decided:
                    decided.add(u)
                    left[p] -= 1
                    rem[u] -= 1
                    rem[v] -= 1
                    matching.append(p)
                    if extend(i + 1):
                        return True
                    matching.pop()
                    left[p] += 1
                    rem[u] += 1
                    rem[v] += 1
                    decided.discard(u)
            found = not must[v] and extend(i + 1)
            decided.discard(v)
            return found

        if extend(0):
            return True
        failed.add(key)
        return False

    if not color_from(1, frozenset()):
        return None
    slots: list[list[int]] = [[] for _ in pairs]
    for c, matching in enumerate(matchings, 1):
        for p in matching:
            slots[p].append(c)
    index = {pair: p for p, (pair, _) in enumerate(pairs)}
    return [slots[index[tuple(sorted(e))]].pop() for e in sub.edges]


def _per_component(g: Multigraph,
                   search: Callable[[Multigraph], list[int] | None]) -> EdgeColoring | None:
    """search run on each component's subgraph, its colors merged by host edge
    id; None at the first component it refutes."""
    colors = [0] * g.edge_count
    for i in range(len(g.traversal.components)):
        sub, ids = g.components_subgraph([i])
        found = search(sub)
        if found is None:
            return None
        for eid, c in zip(ids, found):
            colors[eid] = c
    return EdgeColoring(g, tuple(colors))


def _interval_search(sub: Multigraph) -> list[int] | None:
    chi, _ = exact_chromatic_index(sub, limit=max(sub.edge_count, 20))
    if chi > sub.max_degree:
        return None  # chromatic index above max degree: never interval colorable
    return _color_sweep(sub)


def exact_interval_colorable(g: Multigraph, budget: int = INTERVAL_BUDGET) -> EdgeColoring | None:
    """A witness interval coloring, or a definitive negative.

    Each component is refuted when its chromatic index exceeds its maximum
    degree, and is otherwise decided by the interval color sweep.
    """
    if g.has_loop():
        raise GraphError("interval colorings are defined for loopless graphs")
    if g.edge_count > budget:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {budget}")
    col = _per_component(g, _interval_search)
    if col is not None and not verify(g, col, "interval").interval:
        raise AssertionError("oracle produced an invalid witness")
    return col


def exact_theta(g: Multigraph, budget: int = THETA_BUDGET) -> int:
    """Exact minimum number of interval colorable parts, by canonical partition search."""
    if g.edge_count > budget:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {budget}")
    m = g.edge_count
    if m == 0:
        return 0
    memo: dict[frozenset[int], bool] = {}

    def colorable(part: tuple[int, ...]) -> bool:
        key = frozenset(part)
        if key not in memo:
            sub, _ = g.subgraph(part)
            memo[key] = exact_interval_colorable(sub, budget=max(m, INTERVAL_BUDGET)) is not None
        return memo[key]

    assignment = [0] * m

    def search(i: int, used: int, k: int) -> bool:
        if i == m:
            parts: list[list[int]] = [[] for _ in range(used)]
            for eid, p in enumerate(assignment):
                parts[p].append(eid)
            return all(colorable(tuple(p)) for p in parts)
        for p in range(min(used + 1, k)):
            assignment[i] = p
            if search(i + 1, max(used, p + 1), k):
                return True
        return False

    for k in range(1, m + 1):
        if search(0, 0, k):
            return k
    raise AssertionError("single-edge parts are always feasible")


def nash_williams_arboricity(g: Multigraph, budget: int = ARBORICITY_BUDGET) -> int:
    """Exact arboricity: max over vertex subsets X of ceil(|E(G[X])| / (|X|-1))."""
    if g.has_loop():
        raise GraphError("arboricity is defined for loopless graphs")
    if g.vertex_count > budget:
        raise BudgetExceeded(f"{g.vertex_count} vertices exceed the budget of {budget}")
    if g.edge_count == 0:
        return 0
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    best = 1
    for mask in range(3, 1 << g.vertex_count):
        size = mask.bit_count()
        if size < 2:
            continue
        inside = sum(1 for em in edge_masks if em & mask == em)
        need = -(-inside // (size - 1))
        if need > best:
            best = need
    return best


def exact_cyclic_interval_coloring(g: Multigraph, t: int,
                                   budget: int = INTERVAL_BUDGET) -> EdgeColoring | None:
    """Search for a cyclic interval t-coloring (palettes consecutive mod t).

    Each component runs the color sweep under the wrap rule: colors 1..t, one
    matching each (possibly empty); a vertex matched at color 1 may pause once and
    then runs from t-r+1 through t for its r edges left, and every other vertex
    runs without a gap from its first color.
    """
    if g.has_loop():
        raise GraphError("cyclic interval colorings are defined for loopless graphs")
    if g.edge_count > budget:
        raise BudgetExceeded(f"{g.edge_count} edges exceed the budget of {budget}")
    if t < max(g.max_degree, 1):
        return None
    col = _per_component(g, lambda sub: _color_sweep(sub, t))
    if col is not None and not verify(g, col, "cyclic", t=t).cyclic_interval:
        raise AssertionError("oracle produced an invalid cyclic witness")
    return col
