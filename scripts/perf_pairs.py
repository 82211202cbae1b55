#!/usr/bin/env python3
"""Run the benchmark in two checkouts as interleaved pairs and compare them.

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload timetable \\
        --seed 101 --seconds 8 --pairs 5

Each pair runs ``perfbench/run.py`` once in each checkout, one after the other,
and the side that runs first alternates from pair to pair.  A checkout of the
parent commit serves as PARENT_DIR (``git worktree add`` or ``git archive`` of
it).  For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and interquartile range, the number of pairs the change won (ties
count for neither side), ``Δ/IQR``, that is |change median - parent median|
divided by the parent's IQR, and a verdict:

- ``gain`` when the change won at least nine tenths of the pairs and Δ/IQR is
  above 1;
- ``worse`` when the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- ``unresolved`` when the parent's IQR is wider than that bound times the
  parent's median, so a change within the bound could not be told from noise,
  unless every change run beat every parent run;
- ``flat`` otherwise.

``worse`` comes first, then ``gain``, then ``unresolved``.

Exits 1 if any run reports an output that is not correct.

``--out BENCH_<n>.json`` also merges the summary into that record, keyed by
workload and seed, with both checkouts' commits (``-dirty`` when a tracked file
differs from it, null outside a git checkout), ``--seconds``, ``--pairs``, the
Python version and the CPU count.  ``--compare OLD NEW`` prints, for every
workload and seed in both records, each metric's change median in NEW over the
one in OLD:

    python3 scripts/perf_pairs.py --compare BENCH_31.json BENCH_32.json
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics of BENCHMARK.json: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in checkout."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric from (parent, change) result lines: each side's
    median and IQR, the pairs the change won, and whether every change run
    beat every parent run."""
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        apart = min(change) > max(parent) if higher else max(change) < min(parent)
        rows.append({"name": name, "unit": m["unit"],
                     "parent_median": statistics.median(parent), "parent_iqr": _iqr(parent),
                     "change_median": statistics.median(change), "change_iqr": _iqr(change),
                     "wins": wins, "pairs": len(pairs), "beats_every_parent_run": apart})
    return rows


def verdict(row: dict, metric: dict) -> tuple[float, str]:
    """(|Δ median| / parent IQR, "gain" | "worse" | "unresolved" | "flat") for
    one summary row."""
    delta = row["change_median"] - row["parent_median"]
    iqr = row["parent_iqr"]
    ratio = abs(delta) / iqr if iqr else (math.inf if delta else 0.0)
    worse_by = -delta if metric["better"] == "higher" else delta
    bound = metric["bound"] * abs(row["parent_median"])
    if worse_by > bound:
        return ratio, "worse"
    if worse_by < 0 and 10 * row["wins"] >= 9 * row["pairs"] and ratio > 1:
        return ratio, "gain"
    if iqr > bound and not row["beats_every_parent_run"]:
        return ratio, "unresolved"
    return ratio, "flat"


def format_rows(rows: list[dict], metrics: list[dict]) -> list[str]:
    lines = [f"{'metric':<16} {'unit':<8} {'parent median (IQR)':>24} "
             f"{'change median (IQR)':>24} {'change won':>10} {'Δ/IQR':>7} verdict"]
    for r, m in zip(rows, metrics):
        parent = f"{r['parent_median']:.4g} ({r['parent_iqr']:.3g})"
        change = f"{r['change_median']:.4g} ({r['change_iqr']:.3g})"
        ratio, word = verdict(r, m)
        lines.append(f"{r['name']:<16} {r['unit']:<8} {parent:>24} {change:>24} "
                     f"{r['wins']:>4} of {r['pairs']} {ratio:>7.2f} {word}")
    return lines


def commit(checkout: Path) -> str | None:
    """The commit checked out in checkout, "-dirty" when a tracked file differs
    from it; None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                               "--abbrev=40"], capture_output=True, text=True)
    except OSError:     # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def merge_record(path: Path, run: dict) -> None:
    """Write run into the record at path, in place of a run of the same
    workload and seed; runs are kept sorted by workload and seed."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    key = (run["workload"], run["seed"])
    runs = sorted([r for r in runs if (r["workload"], r["seed"]) != key] + [run],
                  key=lambda r: (r["workload"], r["seed"]))
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def compare_records(old: dict, new: dict) -> list[str]:
    """For every workload and seed in both records, each metric's change median
    in new over the one in old."""
    lines = [f"{'workload':<10} {'seed':>5} {'metric':<16} {'old':>12} {'new':>12} {'new/old':>8}"]
    old_runs = {(r["workload"], r["seed"]): r for r in old["runs"]}
    for run in new["runs"]:
        before = old_runs.get((run["workload"], run["seed"]))
        if before is None:
            continue
        old_rows = {row["name"]: row for row in before["rows"]}
        for row in run["rows"]:
            if row["name"] in old_rows:
                a, b = old_rows[row["name"]]["change_median"], row["change_median"]
                ratio = f"{b / a:.3f}" if a else "-"
                lines.append(f"{run['workload']:<10} {run['seed']:>5} {row['name']:<16} "
                             f"{a:>12.4g} {b:>12.4g} {ratio:>8}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--out", type=Path, help="merge the summary into this BENCH_*.json record")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                    help="print the ratios between two records and run nothing")
    args = ap.parse_args()
    if args.compare:
        try:
            lines = compare_records(*(json.loads(path.read_text()) for path in args.compare))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ap.error(f"cannot compare {args.compare[0]} and {args.compare[1]}: {exc!r}")
        for line in lines:
            print(line)
        return 0
    if None in (args.parent, args.change, args.workload, args.seed, args.seconds, args.pairs):
        ap.error("PARENT, CHANGE, --workload, --seed, --seconds and --pairs are required")
    checkouts = (args.parent, args.change)
    pairs = []
    correct = True
    for i in range(args.pairs):
        pair = [{}, {}]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side] = run_once(checkouts[side], args.workload, args.seed, args.seconds)
        correct = correct and all(r["correct"] for r in pair)
        pairs.append((pair[0], pair[1]))
        print(f"pair {i + 1}: {args.workload} edges_per_s parent "
              f"{pair[0]['metrics']['edges_per_s']['value']:.0f} change "
              f"{pair[1]['metrics']['edges_per_s']['value']:.0f}", flush=True)
    metrics = end_to_end_metrics()
    rows = summarize(pairs, metrics)
    for line in format_rows(rows, metrics):
        print(line)
    if args.out is not None:
        for row, m in zip(rows, metrics):
            ratio, row["verdict"] = verdict(row, m)
            row["delta_over_iqr"] = ratio if math.isfinite(ratio) else None
        merge_record(args.out, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "parent_commit": commit(args.parent),
            "change_commit": commit(args.change), "correct": correct,
            "python": platform.python_version(), "cpu_count": os.cpu_count(), "rows": rows})
    if not correct:
        print("error: a run reported outputs that are not correct", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (piped into head, say): stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
