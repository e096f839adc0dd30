"""Exact enumeration-based verification of the densities.

Each n is classified by the pair (l, m) counting proper k-full integers in
the open intervals (n^k, (n+1)^k) and ((n+1)^k, (n+2)^k).  The sweep walks
the enumerated k-full values once and buckets each value v into
n = floor(v^(1/k)) (a left hit for that n, a right hit for n - 1), so the
cost is proportional to N plus the number of k-full integers up to
(N+2)^k, never to the integers in between.

A single shape lam can hit (n^k, (n+2)^k) at most once (consecutive
multiples of lam are more than 2 apart), which is what makes per-shape hit
sets well defined and the fractional-part criterion
{n/lam} > 1 - j/lam equivalent to an interval hit.  The criterion side is
evaluated numerically with doubling precision until the strict inequality
is decided (lam is irrational, so ties cannot occur); the direct side is
exact integer arithmetic on kth powers.  The two routes stay independent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from mpmath import mp, mpf

from .arith import KFullRepr, enumerate_kfull, introot, shape_tuples
from .density import DensityTable, SubsetSpec
from .shapes import LambdaElement


@dataclass(frozen=True)
class EmpiricalCounts:
    """Occurrence counts per (l, m) cell over 1 <= n <= N."""

    k: int
    N: int
    counts: dict
    bound: int  # enumeration went up to this value (exclusive of (N+2)^k)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def frequency(self, l: int, m: int) -> float:
        return self.counts.get((l, m), 0) / self.N


@dataclass(frozen=True)
class IntervalHit:
    n: int
    side: str  # "left" or "right"
    value: int
    repr: KFullRepr


@dataclass(frozen=True)
class TableComparison:
    k: int
    N: int
    cells: dict  # (l, m) -> (frequency, analytic value or None, deviation)

    @property
    def max_abs_deviation(self) -> float:
        return max((dev for _, _, dev in self.cells.values()), default=0.0)


def interval_hits(n: int, k: int) -> list:
    """All proper k-full values in (n^k, (n+2)^k) with their side and shape."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1, k >= 2")
    lo = n**k
    mid = (n + 1) ** k
    hi = (n + 2) ** k
    hits = []
    for M, b in shape_tuples(k, hi - 1):
        if M == 1:
            continue
        a = introot((hi - 1) // M, k)  # largest a with a^k M < hi
        if a < 1:
            continue
        v = a**k * M
        if v <= lo:
            continue  # the single possible multiple sits below the window
        side = "left" if v < mid else "right"
        hits.append(IntervalHit(n, side, v, KFullRepr(k, a, b)))
    hits.sort(key=lambda h: h.value)
    return hits


def classify_pair(n: int, k: int) -> tuple:
    """(l, m) for a single n, by exact interval enumeration."""
    hits = interval_hits(n, k)
    l = sum(1 for h in hits if h.side == "left")
    m = len(hits) - l
    return (l, m)


def _window_counts(k: int, lo: int, hi: int, N: int) -> dict:
    """Cell counts for n in [lo, hi) by one enumeration sweep."""
    size = hi - lo
    left = bytearray(size)
    right = bytearray(size)
    X = min(hi + 1, N + 2) ** k - 1
    lo_pow = lo**k
    for v, _rep in enumerate_kfull(k, X, proper_only=True):
        if v <= lo_pow:
            continue
        r = introot(v, k)  # r^k < v < (r+1)^k since v is not a kth power
        if lo <= r < hi:
            left[r - lo] += 1
        if lo <= r - 1 < hi:
            right[r - 1 - lo] += 1
    counts = {}
    for i in range(size):
        cell = (left[i], right[i])
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def empirical_table(k: int, N: int, threads: int = 1) -> EmpiricalCounts:
    """Exact cell counts for 1 <= n <= N via a single enumeration sweep
    (optionally over disjoint n-windows merged deterministically).  The
    worker count, one per window, is clamped to the CPUs present."""
    if k < 2 or N < 1:
        raise ValueError("need k >= 2, N >= 1")
    bound = (N + 2) ** k - 1
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or N < 4 * workers:
        counts = _window_counts(k, 1, N + 1, N)
    else:
        edges = [1 + (N * i) // workers for i in range(workers)] + [N + 1]
        jobs = [(k, edges[i], edges[i + 1], N) for i in range(workers)
                if edges[i] < edges[i + 1]]
        counts = {}
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            for part in pool.map(_window_counts_star, jobs):
                for cell, c in part.items():
                    counts[cell] = counts.get(cell, 0) + c
    return EmpiricalCounts(k, N, counts, bound)


def _window_counts_star(args):
    return _window_counts(*args)


def members_B(k: int, I: SubsetSpec, J: SubsetSpec, N: int) -> list:
    """All n <= N whose left-interval hit shapes are exactly I, right exactly
    J, and no other shape hits either interval."""
    if I.k != k or J.k != k:
        raise ValueError("subset k mismatch")
    if I.key_set() & J.key_set():
        raise ValueError("I and J must be disjoint")
    want_left = frozenset(I.key_set())
    want_right = frozenset(J.key_set())
    out = []
    for n in range(1, N + 1):
        hits = interval_hits(n, k)
        got_left = frozenset(h.repr.b for h in hits if h.side == "left")
        got_right = frozenset(h.repr.b for h in hits if h.side == "right")
        if got_left == want_left and got_right == want_right:
            out.append(n)
    return out


def hit_count(n: int, e: LambdaElement, j: int) -> int:
    """Exact number of multiples a^k lam^k inside (n^k, (n+j)^k)."""
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    M = e.radicand()
    k = e.k
    lo = n**k
    hi = (n + j) ** k
    a_hi = introot((hi - 1) // M, k)  # largest a with a^k M < hi
    a_lo = introot(lo // M, k)  # largest a with a^k M <= lo (equality impossible)
    return max(0, a_hi - a_lo)


def lemma_check(n: int, e: LambdaElement, j: int) -> tuple:
    """(criterion, direct): the fractional-part test {n/lam} > 1 - j/lam and
    the exact interval-membership test.  The criterion is decided by
    escalating precision, never by floating-point tie-breaking."""
    direct = hit_count(n, e, j) >= 1
    M = e.radicand()
    k = e.k
    dps = 25
    while True:
        with mp.workdps(dps):
            lam = mp.root(mpf(M), k)
            t = n / lam
            frac = t - mp.floor(t)
            rhs = 1 - j / lam
            # everything is accurate to ~eps relative; decide only outside
            # a generous envelope around the comparison and the floor edge
            err = mp.eps * (abs(t) + 4) * 16
            if frac > err and frac < 1 - err:
                diff = frac - rhs
                if abs(diff) > 2 * err:
                    return (diff > 0, direct)
        dps *= 2
        if dps > 10_000:
            raise ArithmeticError("precision escalation failed")


def compare_tables(emp: EmpiricalCounts, ana: DensityTable) -> TableComparison:
    """Per-cell |frequency - analytic density| over cells present in either
    source.  Cells outside the analytic table range compare against 0 (their
    true density is below the table's resolution)."""
    if emp.k != ana.k:
        raise ValueError("k mismatch between empirical and analytic tables")
    cells = {}
    keys = set(emp.counts) | {lm for lm, _ in ana.cells()}
    for l, m in sorted(keys):
        freq = emp.counts.get((l, m), 0) / emp.N
        if l <= ana.L and m <= ana.L:
            val = float(ana.entry(l, m).value)
            dev = abs(freq - val)
        else:
            val = None
            dev = freq
        cells[(l, m)] = (freq, val, dev)
    return TableComparison(emp.k, emp.N, cells)
