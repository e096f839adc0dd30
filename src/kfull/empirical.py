"""Exact enumeration-based verification of the densities.

Each n is classified by the pair (l, m) counting proper k-full integers in
the open intervals (n^k, (n+1)^k) and ((n+1)^k, (n+2)^k).

The sweep rests on one window primitive, _window_hits(k, lo, hi): for every
lo <= r < hi, the number of proper k-full v with floor(v^(1/k)) = r.  Then
left(n) = hits at n and right(n) = hits at n + 1.  A proper k-full v is
a^k * M for one shape M > 1 (see arith), and M^(1/k) is irrational, so
r = floor(a * M^(1/k)).  For each shape the window takes only its own slice
a_lo <= a <= a_hi (exact introot bounds for lo^k < a^k M < hi^k), in numpy
chunks: a float64 seed for r, then an exact integer fix-up repeated until
r^k < a^k M < (r+1)^k holds for every element.  The powers are int64 while
(r+1)^k < 2^63 is guaranteed for the chunk and Python ints (dtype=object)
past that, through the same lines, so nothing wraps.  Since
M^(1/k) >= 2^((k+1)/k) > 2, one shape's r are at least 2 apart, so the
fancy-indexed hits[r - lo] += 1 never repeats an index and is exact.  The
same fact bounds the hits at any r by the shape count, which sizes the
unsigned hit array.  The cost of a window is its share of the k-full values
plus a few numpy calls per shape, never a walk from 1 and never the
integers in between.

empirical_table tallies (left, right) over disjoint n-windows (one per
worker), members_B reads one window that also keeps the roots of the shapes
it names, and classify_pair is the one-n window.  interval_hits, hit_count
and enumerate_kfull's heap merge stay separate routes to check it against.

A single shape lam can hit (n^k, (n+2)^k) at most once (consecutive
multiples of lam are more than 2 apart), which is what makes per-shape hit
sets well defined and the fractional-part criterion
{n/lam} > 1 - j/lam equivalent to an interval hit.  The criterion side is
evaluated numerically with doubling precision until the strict inequality
is decided (lam is irrational, so ties cannot occur); the direct side is
exact integer arithmetic on kth powers.  The two routes stay independent.

numpy and the process pool are imported inside the functions that use them,
so a command that never sweeps (table, constants) loads neither.  Before
empirical_table starts its pool, the parent imports numpy once: the forked
workers inherit it instead of each importing it again.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from mpmath import mp, mpf

from .arith import KFullRepr, introot, shape_tuples
from .density import DensityTable, SubsetSpec
from .shapes import LambdaElement

_CHUNK = 1 << 15  # a-values (or n-values) per numpy chunk
_INT64_MAX = 2**63 - 1


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
    """(l, m) for a single n: the one-n window of the sweep."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1, k >= 2")
    hits, _ = _window_hits(k, n, n + 2)
    return (int(hits[0]), int(hits[1]))


def _floor_roots(k: int, M: int, lam: float, a0: int, a1: int, lo: int, top: int):
    """r = floor(a * M^(1/k)) for a in [a0, a1), given lo <= r <= top for all
    of them, as an int64 array.

    The float64 seed a * lam is only a guess; the exact integer fix-up below
    repeats until r^k < a^k M < (r+1)^k holds for every element.  The kth
    powers are int64 while (top+1)^k < 2^63 and Python ints (dtype=object)
    past that, through the same lines.
    """
    import numpy as np

    a = np.arange(a0, a1, dtype=np.int64)
    r = np.maximum(np.minimum(np.floor(a * lam).astype(np.int64), top), lo)
    if (top + 1) ** k > _INT64_MAX:
        a, r = a.astype(object), r.astype(object)
    v = a**k * M
    while True:
        down = r**k > v  # v is never a kth power, so > and >= agree
        up = (r + 1) ** k < v
        if not (down.any() or up.any()):
            return r.astype(np.int64)
        r[down] -= 1
        r[up] += 1


def _window_hits(k: int, lo: int, hi: int, keep=frozenset()):
    """hits[i] = number of proper k-full v with floor(v^(1/k)) = lo + i, for
    lo <= lo + i < hi; that is, every v in (lo^k, hi^k), bucketed by root.

    Also returns, for each shape tuple b in keep, the int64 array of the roots
    r its values land on (empty when the shape never enters the window).
    """
    import numpy as np

    X = hi**k - 1
    shapes = [(M, b) for M, b in shape_tuples(k, X) if M > 1]
    # one shape hits each root at most once, so the shape count bounds hits[i]
    hits = np.zeros(hi - lo, dtype=np.min_scalar_type(len(shapes)))
    kept = {b: [] for b in keep}
    lo_pow = lo**k
    wide = X > _INT64_MAX  # only then can a chunk's kth powers leave int64
    for M, b in shapes:
        a_lo = introot(lo_pow // M, k) + 1  # smallest a with a^k M > lo^k
        a_hi = introot(X // M, k)  # largest a with a^k M < hi^k
        lam = math.exp(math.log(M) / k)
        for a0 in range(a_lo, a_hi + 1, _CHUNK):
            a1 = min(a0 + _CHUNK, a_hi + 1)
            top = introot((a1 - 1) ** k * M, k) if wide else hi - 1
            r = _floor_roots(k, M, lam, a0, a1, lo, top)
            # lam = M^(1/k) > 2, so consecutive a land at least two roots
            # apart: the indices are distinct and the buffered += is exact
            hits[r - lo] += 1
            if b in kept:
                kept[b].append(r)
    return hits, {b: np.concatenate(rs) if rs else np.zeros(0, np.int64)
                  for b, rs in kept.items()}


def _window_counts(k: int, lo: int, hi: int) -> dict:
    """Cell counts for n in [lo, hi): left(n) = hits[n - lo] and
    right(n) = hits[n + 1 - lo], tallied in chunks with bincount."""
    import numpy as np

    hits, _ = _window_hits(k, lo, hi + 1)
    W = int(hits.max()) + 1
    tally = np.zeros(W * W, dtype=np.int64)
    for i in range(0, hi - lo, _CHUNK):
        j = min(i + _CHUNK, hi - lo)
        code = hits[i:j].astype(np.int64) * W + hits[i + 1 : j + 1]
        tally += np.bincount(code, minlength=W * W)
    return {(int(c) // W, int(c) % W): int(tally[c]) for c in np.flatnonzero(tally)}


def empirical_table(k: int, N: int, threads: int = 1) -> EmpiricalCounts:
    """Exact cell counts for 1 <= n <= N via a single enumeration sweep
    (optionally over disjoint n-windows merged deterministically).  The
    worker count, one per window, is clamped to the CPUs present."""
    if k < 2 or N < 1:
        raise ValueError("need k >= 2, N >= 1")
    bound = (N + 2) ** k - 1
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or N < 4 * workers:
        counts = _window_counts(k, 1, N + 1)
    else:
        edges = [1 + (N * i) // workers for i in range(workers)] + [N + 1]
        jobs = [(k, edges[i], edges[i + 1]) for i in range(workers)
                if edges[i] < edges[i + 1]]
        import concurrent.futures

        import numpy  # noqa: F401  (imported once here, inherited by every forked worker)

        counts = {}
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(jobs)) as pool:
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
    if N < 1:
        return []
    import numpy as np

    want_left, want_right = I.key_set(), J.key_set()
    hits, roots = _window_hits(k, 1, N + 2, want_left | want_right)
    # n is a member iff its hit counts are |I| and |J| and every shape of I
    # (of J) lands left (right) of n; one shape hits (n^k, (n+2)^k) at most
    # once, so the counts then leave room for no other shape
    member = (hits[:N] == len(want_left)) & (hits[1:] == len(want_right))
    for b in want_left:
        member &= _marks(roots[b] - 1, N)  # left of n: r = n
    for b in want_right:
        member &= _marks(roots[b] - 2, N)  # right of n: r = n + 1
    return [int(i) + 1 for i in np.flatnonzero(member)]


def _marks(idx, size: int):
    """Boolean array of length size, True at the in-range entries of idx."""
    import numpy as np

    out = np.zeros(size, dtype=bool)
    out[idx[(idx >= 0) & (idx < size)]] = True
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
