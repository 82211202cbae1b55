"""Text and JSON serialization for graphs, colorings, and decompositions."""
from __future__ import annotations

import json
from operator import itemgetter
from typing import Any

from .multigraph import (Decomposition, EdgeColoring, GraphError, Multigraph, _as_int,
                         build_graph)


def graph_to_text(g: Multigraph) -> str:
    """First line ``V E``, then one ``u v`` line per edge in id order."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Multigraph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise GraphError("expected header line 'V E'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
    except ValueError:
        raise GraphError(f"header line must be two integers 'V E', got {' '.join(rows[0])!r}") from None
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    return build_graph(n, rows[1:])


def graph_to_json(g: Multigraph) -> dict[str, Any]:
    return {
        "vertex_count": g.vertex_count,
        "edges": [{"id": eid, "u": u, "v": v} for eid, (u, v) in enumerate(g.edges)],
    }


def graph_from_json(obj: Any) -> Multigraph:
    if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
        raise GraphError("graph JSON needs 'vertex_count' and a list of 'edges'")
    edges, n = obj["edges"], obj.get("vertex_count")
    # the file graph_to_json writes (dict edges, ids 0..E-1, int ends and count)
    # is read in C-level passes; anything else takes the checked path below,
    # which names what is wrong.  Multigraph checks the ends either way.
    if type(n) is int and isinstance(obj.get("allows_loops", False), bool) \
            and set(map(type, edges)) <= {dict}:
        try:
            ids, us, vs = (list(map(itemgetter(key), edges)) for key in ("id", "u", "v"))
        except KeyError:
            pass
        else:
            if ids == list(range(len(edges))) and {*map(type, us), *map(type, vs)} <= {int}:
                return Multigraph(n, tuple(zip(us, vs)))
    pairs = []
    for i, e in enumerate(edges):
        if isinstance(e, dict):
            if e.get("id", i) != i:
                raise GraphError("edge ids must be dense and in order")
            e = (e.get("u"), e.get("v"))
        pairs.append(e)
    # a flag of older files: loops are rejected by Multigraph whatever it says
    if not isinstance(obj.get("allows_loops", False), bool):
        raise GraphError(f"'allows_loops' must be true or false, got {obj['allows_loops']!r}")
    return build_graph(obj.get("vertex_count"), pairs)


def coloring_to_json(c: EdgeColoring) -> list[int]:
    """JSON list, color per edge id."""
    return list(c.colors)


def coloring_from_json(obj: Any, g: Multigraph) -> EdgeColoring:
    if not isinstance(obj, list):
        raise GraphError("coloring JSON must be a list of colors")
    return EdgeColoring(g, tuple(_as_int(x) for x in obj))


def decomposition_to_json(d: Decomposition) -> dict[str, Any]:
    """Wire format: the part of every edge, then per part its colors by ascending edge id."""
    certs: list[list[int]] = [[] for _ in range(d.part_count)]
    for p, c in zip(d.parts, d.colors):
        certs[p].append(c)
    return {"part": list(d.parts), "certificates": certs}


def decomposition_from_json(obj: dict[str, Any], g: Multigraph) -> Decomposition:
    """Inverse of decomposition_to_json; every nonempty part needs a certificate
    with one color per edge of the part."""
    if not isinstance(obj, dict) or not isinstance(obj.get("part"), list):
        raise GraphError(f"decomposition JSON needs a 'part' list, got {obj!r}")
    parts = tuple(_as_int(p) for p in obj["part"])
    certs = obj.get("certificates")
    if not isinstance(certs, list):
        raise GraphError("decomposition JSON needs a list of certificates")
    members: dict[int, list[int]] = {}
    for eid, p in enumerate(parts):
        members.setdefault(p, []).append(eid)
    colors = [0] * len(parts)
    for p, eids in members.items():
        raw = certs[p] if 0 <= p < len(certs) else None
        if not isinstance(raw, list) or len(raw) != len(eids):
            raise GraphError(f"part {p} needs a certificate of {len(eids)} colors")
        for eid, c in zip(eids, raw):
            colors[eid] = _as_int(c)
    return Decomposition(g, parts, tuple(colors))


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
