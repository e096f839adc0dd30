"""Compare a parent commit with a change, workload by workload.

    git archive PARENT | tar -x -C ../parent     # a plain copy of the parent
    python3 perfbench/compare.py --base ../parent --change . --workload engine --pairs 10

Runs this copy of the benchmark (its run.py, same settings) against both
checkouts in pairs.  Pair i uses seed --seed + i on both sides; the base runs
first in even pairs and the change first in odd ones.  Results whose mpmath
backend or core count differ are refused: the numbers would not be
comparable.  For each end-to-end metric it prints both sides' medians and
quartiles, the pairs the change won, and a verdict:

  gain        over 10 or more pairs, the change wins at least 9 in 10 and the
              medians differ by more than the base's own quartile spread;
  regression  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  neither, and the base's spread is wider than the bound;
  same        neither, within the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_side(root: str, workload: str, seed: int, seconds: int) -> tuple:
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--root", root, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed on {root}:\n{p.stderr}")
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    return stamp, json.loads(lines[-1])


def verdict(base: list, change: list, better: str, bound: float) -> tuple:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    mb, mc = statistics.median(base), statistics.median(change)
    q = statistics.quantiles(base, n=4) if len(base) > 1 else [mb, mb, mb]
    spread = q[2] - q[0]
    if len(base) >= 10 and wins >= 0.9 * len(base) and abs(mc - mb) > spread:
        return wins, "gain"
    if sign * (mc - mb) < -bound * abs(mb):
        return wins, "regression"
    if mb and spread / abs(mb) > bound:
        return wins, "unresolved"
    return wins, "same"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    if args.pairs < 10:
        print("note: a gain needs at least 10 pairs", file=sys.stderr)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    values = {s: {n: [] for n in metrics} for s in sides}
    stamps = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            stamp, result = run_side(sides[side], args.workload, args.seed + i, seconds)
            stamps.append(stamp)
            if not result["correct"]:
                print(f"pair {i}: {side} failed {result['failed']} of "
                      f"{result['attempted']} operations", file=sys.stderr)
            for n in metrics:
                values[side][n].append(result["metrics"][n]["value"])
        print(f"pair {i} done", file=sys.stderr)
    for key in ("mpmath_backend", "nproc"):
        seen = {s[key] for s in stamps}
        if len(seen) > 1:
            print(f"refusing to compare: results differ in {key}: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2

    print(f"workload {args.workload}, {args.pairs} pairs, backend "
          f"{stamps[0]['mpmath_backend']}, nproc {stamps[0]['nproc']}")
    for n, m in metrics.items():
        row = [n, m["unit"]]
        for side in ("base", "change"):
            v = values[side][n]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            row.append(f"{statistics.median(v):.6g} [{q[0]:.6g}, {q[2]:.6g}]")
        wins, word = verdict(values["base"][n], values["change"][n], m["better"], m["bound"])
        print(f"  {row[0]:18s} {row[1]:7s} base {row[2]:34s} change {row[3]:34s} "
              f"change won {wins}/{args.pairs}: {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
