"""Run one kfull command between speed probes, as `python -m kfull` would.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/launch.py PROBES.json -- table --k 2 --format csv

Before the command and after it, in the same process and so on the same
core, the launcher times PROBES_EACH runs of speed_probe(): a fixed piece of
pure-Python work that shares no code with kfull.  It writes their durations
to PROBES.json and exits with the command's exit code; stdout is left to the
program.  run.py takes the probes' time out of the command's wall time and
measures wall_s against their mean (see README.md, "Host speed").
"""

from __future__ import annotations

import heapq
import json
import os
import runpy
import sys
import time

PROBES_EACH = 3  # before the command, and again after it
# wall_s is scaled to a host on which speed_probe() takes this long on
# average; about its mean on a 2-vCPU Xeon VM with Python 3.11.7
SPEED_REF_S = 0.045


def speed_probe(rounds: int = 30_000) -> float:
    """Seconds for a fixed piece of work of the kind kfull's hot paths do:
    multi-limb integer arithmetic (mpmath mantissas), a bounded heap (the
    enumeration's merge) and dict counting."""
    t0 = time.perf_counter()
    mask = (1 << 256) - 1
    x, acc, heap, counts = 1, 0, [], {}
    for i in range(rounds):
        x = (x * 6364136223846793005 + 1442695040888963407 + (x >> 71)) & mask
        acc = (acc + ((x * x) >> 400) + x % (97 + (i & 63))) % 1_000_000_007
        y = x >> 240
        counts[y & 1023] = counts.get(y & 1023, 0) + 1
        heapq.heappush(heap, y)
        if len(heap) > 256:
            heapq.heappop(heap)
    if acc < 0 or not counts:
        raise AssertionError("unreachable: keeps the loop's results live")
    return time.perf_counter() - t0


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: launch.py PROBES.json -- KFULL_ARGS...", file=sys.stderr)
        return 2
    out = sys.argv[1]
    probes = [speed_probe() for _ in range(PROBES_EACH)]
    # as under -m: the working directory, not perfbench/, heads the path
    sys.path[0] = os.getcwd()
    sys.argv = ["kfull", *sys.argv[3:]]
    rc = 0
    try:
        runpy.run_module("kfull", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        rc = exc.code
    sys.stdout.flush()
    probes += [speed_probe() for _ in range(PROBES_EACH)]
    with open(out, "w") as fh:
        json.dump(probes, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
