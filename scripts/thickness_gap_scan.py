#!/usr/bin/env python3
"""Scan random small graphs for gaps between the dispatcher's certified part
count and the exact thickness, and report any instance where a constructive
bound is not tight.  Useful for probing whether thickness 3 shows up anywhere
in a family (none is known among planar graphs).

Exits 1 when the dispatcher certifies fewer parts than the exact thickness on
any trial: one of the two verifiers is then wrong."""
import argparse
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from intcolor.multigraph import build_graph
from intcolor.oracles import exact_theta
from intcolor.thickness import dispatch_theta_upper


def random_graph(rng: random.Random, n: int, m: int):
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return build_graph(n, edges)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--max-edges", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    gaps = {0: 0, 1: 0}
    worst = []
    max_theta = 0
    for trial in range(args.trials):
        g = random_graph(rng, rng.randint(3, 7), rng.randint(1, args.max_edges))
        if g.edge_count == 0 or g.edge_count > args.max_edges:
            continue
        theta = exact_theta(g, budget=args.max_edges)
        d, trace = dispatch_theta_upper(g)
        gap = d.part_count - theta
        gaps[gap] = gaps.get(gap, 0) + 1
        max_theta = max(max_theta, theta)
        if gap > 0:
            worst.append((gap, g.edges, trace.method))
    print(f"trials with edges: {sum(gaps.values())}")
    for gap in sorted(gaps):
        print(f"  dispatcher gap {gap}: {gaps[gap]} instances")
    print(f"largest exact thickness seen: {max_theta}")
    for gap, edges, method in worst[:10]:
        print(f"  gap {gap} via {method}: edges {list(edges)}")
    if min(gaps) < 0:
        print("dispatcher beat the exact thickness: a verifier is wrong", file=sys.stderr)
        return 1
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
