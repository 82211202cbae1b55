"""Command-line entry point: generation, coloring, decomposition, timetables,
verification, and oracle runs.  JSON goes to stdout (or --out); exit status is
nonzero when a requested verification fails."""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import graphio
from .edge_coloring import konig_color, shannon_color, vizing_color
from .generators import FamilySpec, generate
from .multigraph import (EdgeColoring, GraphError, Multigraph, verify,
                         verify_decomposition)
from .oracles import (exact_chromatic_index, exact_interval_colorable, exact_theta,
                      nash_williams_arboricity)
from .thickness import (METHODS, BoundTrace, dispatch_theta_upper, run_named_method,
                        split_cyclic)
from .timetable import RequirementMatrix, make_weekly_timetable, render_timetable


def _load_json_or_text(path: str):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text
    except RecursionError:
        raise GraphError(f"{path}: JSON nested too deeply") from None


def _load_graph(path: str) -> Multigraph:
    obj = _load_json_or_text(path)
    if isinstance(obj, str):
        return graphio.graph_from_text(obj)
    return graphio.graph_from_json(obj)


def _emit(obj, out: str | None) -> None:
    text = graphio.dumps(obj)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    spec = FamilySpec.parse(args.family)
    if args.seed is not None:
        spec = FamilySpec(spec.family, spec.params, args.seed)
    gen = generate(spec)
    _emit(graphio.graph_to_json(gen.graph), args.out)
    return 0


# color --method spellings run as the dispatcher candidate row of that name
_CANDIDATE_COLORINGS = {"subcubic": "subcubic", "kernel:forest": "forest",
                        "kernel:cactus": "cactus", "kernel:low_even": "low-even-bipartite"}


def _cmd_color(args) -> int:
    g = _load_graph(args.graph)
    method = args.method
    if method == "konig":
        col = konig_color(g)
    elif method == "vizing":
        col = vizing_color(g)
    elif method == "shannon":
        col = shannon_color(g)
    elif method in _CANDIDATE_COLORINGS:
        col = EdgeColoring(g, run_named_method(g, _CANDIDATE_COLORINGS[method])[0].colors)
    elif method == "exact":
        chi, col = exact_chromatic_index(g)
        print(f"chromatic index: {chi}", file=sys.stderr)
    else:
        raise GraphError(f"unknown coloring method {method!r}")
    _emit(graphio.coloring_to_json(col), args.out)
    return 0


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    if args.cyclic_coloring is not None:
        if args.t is None:
            raise GraphError("--cyclic-coloring requires --t")
        col = graphio.coloring_from_json(_load_json_or_text(args.cyclic_coloring), g)
        d = split_cyclic(g, col, args.t)
        trace = BoundTrace("cyclic-split", "2 (cyclic interval)", 2, d.part_count,
                           True).to_json()
    else:
        d, tr = run_named_method(g, args.method)
        trace = tr.to_json()
    payload = graphio.decomposition_to_json(d)
    payload["trace"] = trace
    _emit(payload, args.out)
    return 0


def _cmd_timetable(args) -> int:
    obj = _load_json_or_text(args.matrix)
    if isinstance(obj, (list, dict)):
        B = RequirementMatrix.from_rows(obj.get("b") if isinstance(obj, dict) else obj)
    else:
        # text, or a one-cell CSV such as "3" or "1e2" that also parses as a JSON scalar
        B = RequirementMatrix.from_csv(obj if isinstance(obj, str)
                                       else Path(args.matrix).read_text())
    # make_weekly_timetable certifies the timetable and raises if the check fails
    S, trace = make_weekly_timetable(B, "even_spread" if args.even else "fewest_days")
    if args.grid:
        print(render_timetable(S), file=sys.stderr)
    print(f"days: {S.day_count}  method: {trace.method} [{trace.bound_formula}]",
          file=sys.stderr)
    _emit(S.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    obj = _load_json_or_text(args.target)
    if isinstance(obj, list):
        col = graphio.coloring_from_json(obj, g)
        if args.cyclic is not None:
            rep = verify(g, col, "cyclic", t=args.cyclic)
            ok = bool(rep.cyclic_interval)
        else:
            rep = verify(g, col, args.mode)
            ok = rep.passed(args.mode)
    elif isinstance(obj, dict) and "part" in obj:
        d = graphio.decomposition_from_json(obj, g)
        rep = verify_decomposition(g, d)
        ok = rep.interval
    else:
        raise GraphError("target is neither a coloring list nor a decomposition object")
    _emit({"proper": rep.proper, "interval": rep.interval,
           "cyclic_interval": rep.cyclic_interval,
           "offending_vertices": list(rep.offending_vertices),
           "offending_edges": list(rep.offending_edges)}, args.out)
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    if args.question == "interval":
        w = exact_interval_colorable(g)
        _emit({"interval_colorable": w is not None,
               "witness": None if w is None else graphio.coloring_to_json(w)}, args.out)
    elif args.question == "theta":
        _emit({"theta": exact_theta(g)}, args.out)
    elif args.question == "arboricity":
        _emit({"arboricity": nash_williams_arboricity(g)}, args.out)
    elif args.question == "chi":
        chi, w = exact_chromatic_index(g)
        _emit({"chi": chi, "witness": graphio.coloring_to_json(w)}, args.out)
    return 0


_BENCH_SUITES = {
    "quick": [
        "fixture(name=k33)", "fixture(name=k5)", "fixture(name=octahedron)",
        "tree(n=30)", "cactus(blocks=6)", "bipartite_random(nx=10,ny=10,edges=40,max_degree=7)",
        "biregular(a=3,b=6,scale=2)", "eulerian_bipartite(nx=6,ny=6,walks=5,walk_len=4,max_degree=8)",
        "balanced(n=2,r=4)", "circular_complete(p=8,q=3)",
    ],
    "sweep": [
        "tree(n=60)", "cactus(blocks=10)", "bipartite_random(nx=20,ny=20,edges=120,max_degree=9)",
        "biregular(a=3,b=6,scale=3)", "biregular(a=4,b=8,scale=2)", "biregular(a=4,b=8,scale=3)",
        "biregular(a=5,b=10,scale=2)", "biregular(a=7,b=14,scale=2)",
        "eulerian_bipartite(nx=8,ny=8,walks=8,walk_len=5,max_degree=12)",
        "balanced(n=2,r=6)", "balanced(n=3,r=3)", "balanced(n=2,r=5)",
        "semiregular(n=2,r=2)", "semiregular(n=4,r=3)",
        "complete_multipartite(sizes=3+1+2+4+2)", "circular_complete(p=9,q=3)",
        "cubic_class1(n=30)", "odd_complete(n=4)",
    ],
}


def _cmd_bench(args) -> int:
    if args.suite not in _BENCH_SUITES:
        raise GraphError(f"unknown suite {args.suite!r}; have {sorted(_BENCH_SUITES)}")
    rows = []
    ok = True
    for spec_text in _BENCH_SUITES[args.suite]:
        spec = FamilySpec.parse(spec_text)
        if args.seed is not None:
            spec = FamilySpec(spec.family, spec.params, args.seed)
        g = generate(spec).graph
        t0 = time.perf_counter()
        d, trace = dispatch_theta_upper(g)
        dt = time.perf_counter() - t0
        certified = verify_decomposition(g, d).interval
        ok &= certified and d.part_count <= trace.bound_value
        rows.append({"instance": spec_text, "vertices": g.vertex_count,
                     "edges": g.edge_count, "parts": d.part_count,
                     "method": trace.method, "bound": trace.bound_value,
                     "seconds": round(dt, 4), "certified": certified})
    _emit(rows, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="intcolor",
                                description="Interval edge colorings, decompositions, "
                                            "and no-wait timetables")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family instance")
    g.add_argument("family", help="e.g. 'balanced(n=2,r=3)' or 'fixture(name=k5)'")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("color", help="properly or interval color a graph")
    c.add_argument("graph")
    c.add_argument("--method", default="konig",
                   choices=["konig", "vizing", "shannon", "subcubic", "exact",
                            "kernel:forest", "kernel:cactus", "kernel:low_even"])
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_color)

    d = sub.add_parser("decompose", help="decompose into interval colorable parts")
    d.add_argument("graph")
    d.add_argument("--method", default="auto", help=", ".join(("auto",) + METHODS))
    d.add_argument("--auto", action="store_const", dest="method", const="auto",
                   help="shorthand for --method auto")
    d.add_argument("--cyclic-coloring", dest="cyclic_coloring",
                   help="cyclic interval coloring JSON enabling the 2-part split")
    d.add_argument("--t", type=int, default=None)
    d.add_argument("--out")
    d.set_defaults(fn=_cmd_decompose)

    t = sub.add_parser("timetable", help="no-wait weekly timetable from a matrix")
    t.add_argument("matrix", help="CSV (rows of lecture counts) or JSON")
    t.add_argument("--even", action="store_true", help="spread lessons evenly")
    t.add_argument("--grid", action="store_true", help="print a readable grid to stderr")
    t.add_argument("--out")
    t.set_defaults(fn=_cmd_timetable)

    v = sub.add_parser("verify", help="check a coloring or decomposition")
    v.add_argument("graph")
    v.add_argument("target")
    v.add_argument("--mode", default="interval", choices=["proper", "interval"])
    v.add_argument("--cyclic", type=int, default=None, metavar="T")
    v.add_argument("--out")
    v.set_defaults(fn=_cmd_verify)

    o = sub.add_parser("oracle", help="exact desk-scale answers")
    o.add_argument("graph")
    o.add_argument("question", choices=["interval", "theta", "arboricity", "chi"])
    o.add_argument("--out")
    o.set_defaults(fn=_cmd_oracle)

    b = sub.add_parser("bench", help="run a suite through the dispatcher")
    b.add_argument("suite", help=", ".join(_BENCH_SUITES))
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
