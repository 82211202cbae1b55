#!/usr/bin/env python3
"""Build both no-wait weekly timetables (fewest days / even spread) for a random
requirement matrix and print the grids."""
import argparse
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from intcolor.timetable import (RequirementMatrix, daily_loads, make_weekly_timetable,
                                render_timetable, verify_timetable)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--classes", type=int, default=5)
    ap.add_argument("--teachers", type=int, default=5)
    ap.add_argument("--max-lectures", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    B = RequirementMatrix.from_rows(
        [[rng.randint(0, args.max_lectures) for _ in range(args.teachers)]
         for _ in range(args.classes)])
    print("requirement matrix (rows = classes, columns = teachers):")
    print(B.to_csv())

    for mode in ("fewest_days", "even_spread"):
        S, trace = make_weekly_timetable(B, mode)
        rep = verify_timetable(B, S)
        print(f"== {mode}: {S.day_count} day(s), method {trace.method} "
              f"[{trace.bound_formula}], verified={rep.interval}")
        print(render_timetable(S))
        if mode == "even_spread":
            cl, tl = daily_loads(S, B.n_classes, B.m_teachers)
            spread = max((max(ld) - min(ld) for ld in cl + tl if ld), default=0)
            print(f"largest daily-load spread over all parties: {spread}")
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
