"""Regenerate perfbench/reference.json, the exact answers for the sweep workload.

Usage:  python3 perfbench/make_reference.py

The counts are computed here from first principles, without importing kfull,
so that the benchmark checks the program against an independent route.  Every
proper k-full integer is a^k * M with M = b_1^(k+1) ... b_(k-1)^(2k-1) > 1 over
squarefree pairwise-coprime tuples b; such a value v lies strictly between
r^k and (r+1)^k with r = floor(v^(1/k)), so it is a left hit of n = r and a
right hit of n = r - 1.  The sweep workload draws its N from the grids below,
so the stored cell counts cover every seed.
"""

from __future__ import annotations

import json
import os
from math import gcd, isqrt

from workloads import EMPIRICAL_GRID, MEMBERS_N

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "reference.json")
MEMBERS_K = 2
MEMBERS_MAX_N = MEMBERS_N[1]


def iroot(v: int, k: int) -> int:
    r = int(round(v ** (1.0 / k)))
    while r**k > v:
        r -= 1
    while (r + 1) ** k <= v:
        r += 1
    return r


def squarefree_table(limit: int) -> bytearray:
    t = bytearray([1]) * (limit + 1)
    t[0] = 0
    for i in range(2, isqrt(limit) + 1):
        t[i * i :: i * i] = bytearray(len(t[i * i :: i * i]))
    return t


def shapes(k: int, X: int):
    """(M, b) for every shape tuple b with 1 < M <= X."""
    sf = squarefree_table(iroot(X, k + 1) + 1)
    out = []

    def rec(j, M, prod, b):
        if j == k:
            if M > 1:
                out.append((M, tuple(b)))
            return
        e = k + j
        bj = 1
        while M * bj**e <= X:
            if bj == 1 or (sf[bj] and gcd(bj, prod) == 1):
                rec(j + 1, M * bj**e, prod * bj, b + [bj])
            bj += 1

    rec(1, 1, 1, [])
    return out


def hits(k: int, n_max: int, keep_shapes: bool):
    """Per-n left and right hit counts (or shape lists) for 1 <= n <= n_max."""
    X = (n_max + 2) ** k - 1
    make = list if keep_shapes else int
    left = [make() for _ in range(n_max + 2)]
    right = [make() for _ in range(n_max + 2)]
    for M, b in shapes(k, X):
        a = 1
        while a**k * M <= X:
            r = iroot(a**k * M, k)
            for side, n in ((left, r), (right, r - 1)):
                if 1 <= n <= n_max:
                    if keep_shapes:
                        side[n].append(list(b))
                    else:
                        side[n] += 1
            a += 1
    return left, right


def cell_counts(k: int, grid: list) -> dict:
    left, right = hits(k, max(grid), keep_shapes=False)
    out = {}
    counts = {}
    todo = sorted(grid)
    for n in range(1, max(grid) + 1):
        cell = (left[n], right[n])
        counts[cell] = counts.get(cell, 0) + 1
        if n == todo[0]:
            out[str(n)] = [[l, m, c] for (l, m), c in sorted(counts.items())]
            todo.pop(0)
    return out


def main() -> None:
    left, right = hits(MEMBERS_K, MEMBERS_MAX_N, keep_shapes=True)
    ref = {
        "empirical": {str(k): cell_counts(k, grid) for k, grid in EMPIRICAL_GRID.items()},
        "hit_shapes": {
            "k": MEMBERS_K,
            "max_n": MEMBERS_MAX_N,
            "left": [sorted(x) for x in left[1 : MEMBERS_MAX_N + 1]],
            "right": [sorted(x) for x in right[1 : MEMBERS_MAX_N + 1]],
        },
    }
    with open(OUT, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
