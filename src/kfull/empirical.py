"""Exact enumeration-based verification of the densities.

Each n is classified by the pair (l, m) counting proper k-full integers in
the open intervals (n^k, (n+1)^k) and ((n+1)^k, (n+2)^k).

The sweep rests on one window primitive: for every lo <= r < hi, the
number of proper k-full v with floor(v^(1/k)) = r.  Then left(n) = hits at
n and right(n) = hits at n + 1.  A proper k-full v is a^k * M for one
shape M > 1 (see arith), and M^(1/k) is irrational, so r = floor(a M^(1/k)),
and the a of one shape that land in roots [s0, s1) are exactly
A(s0) < a <= A(s1) with A(R) = floor(R / M^(1/k)).  Both routes take the
shapes from one walk (_window_shapes) and compute A(R) exactly.

A window takes one of two routes, chosen by its estimated work, counted in
(shape, a) pairs: about (hi - lo) M^(-1/k) pairs per shape plus the
shape's own introots, read from the radicands the window already holds
(_integer_route).

* The integer route (_int_window), below _INT_PAIRS, where importing numpy
  costs more than the count: each shape's fixed-point root
  L = floor(M^(1/k) 2^_F) is taken once with introot.  a L lies below
  a M^(1/k) 2^_F by less than a, so r = (a L) >> _F unless the low _F bits
  of a L are within a of a carry past bit _F; such a pair, rare, is decided
  by introot.  No float is involved, so nothing needs a
  proof.  The hits are a list; each cell (l, m) is coded as one small int
  and the codes are tallied with a Counter (_pair_tally).

* The numpy route (_root_blocks) is value-major: it takes every shape at
  once, as arrays, and walks the roots in blocks.  Per block it finds A(s1)
  for all shapes in one numpy pass, lays the block's (shape, a) pairs end to
  end, decides every r and tallies the block with bincount.  Every floor is
  decided exactly: each shape's float64 seed of M^(1/k) is proven to a
  relative 2^-48 with correctly rounded float products (_Shapes), which
  bounds the error of a * seed and R / seed; a floor is taken from the float
  only when that error interval holds no integer, and otherwise (a near-tie,
  a seed that failed its proof, or values past 2^46) from introot in Python
  integers.  Nothing wraps and nothing rests on an unproven float.  A block
  holds about max(_BLOCK, shapes) pairs and its hits; consecutive blocks
  share one boundary root, which right(n) of the block's last n needs.
  Memory is O(shapes + block), never O(N), and the cost of a window is its
  share of the k-full values plus a few numpy calls per block.

empirical_table tallies (left, right) over disjoint n-windows (one per
worker, _window_counts per window), members_B reads one window that also
keeps the roots of the shapes it names, and classify_pair is the one-n
window.  interval_hits, hit_count and enumerate_kfull's heap merge stay
separate routes to check it against.

A single shape lam can hit (n^k, (n+2)^k) at most once (consecutive
multiples of lam are more than 2 apart), which is what makes per-shape hit
sets well defined and the fractional-part criterion
{n/lam} > 1 - j/lam equivalent to an interval hit.  The criterion side is
evaluated numerically with doubling precision until the strict inequality
is decided (lam is irrational, so ties cannot occur); the direct side is
exact integer arithmetic on kth powers.  The two routes stay independent.

The sweep never loads the series engine or mpmath: shapes are named by
arith's LambdaElement and SubsetSpec, and only lemma_check and its _lam
import mpmath, so empirical (without --compare) and enumerate members_B run
on integers and numpy alone.  numpy and the process pool are imported inside
the functions that use them, so a command that never sweeps (table,
constants), and a sweep on the integer route, loads neither.
empirical_table starts its pool only from N = _POOL_MIN_N, where the second
window saves more than the workers' start-up costs; before it does, the
parent imports numpy once, and the forked workers inherit it instead of each
importing it again.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .arith import KFullRepr, LambdaElement, SubsetSpec, introot, shape_tuples

if TYPE_CHECKING:
    from .density import DensityTable

_BLOCK = 1 << 14  # (shape, a) pairs per root block, about
_F = 64  # fraction bits of the integer route's fixed-point roots
# the integer route's limit, in (shape, a) pairs of work (_integer_route),
# where its time meets a numpy import plus the numpy count.  Timed on a
# 2-vCPU host, medians of 11 to 21 fresh `empirical` processes with each
# route forced: at k = 2, 564k took 0.20 s on either route and 625k 0.27 s
# against 0.24 s; at k = 4, 627k took 0.18 s against 0.23 s and 772k 0.36 s
# against 0.34 s; k = 3 still met numpy at 771k (0.22 s each)
_INT_PAIRS = 600_000
# a shape's own introots, in pairs per unit of k: 3-7 us per shape at
# k = 3..8, against 0.15-0.25 us per pair
_SHAPE_PAIRS = 6
_W = 2.0**-48  # relative half-width of the interval proven around each seed
# the smallest N at which empirical_table starts a process pool.  Timed at
# k = 2 on a 2-vCPU host (in-process time, median of 7 fresh processes per
# point, pool forced), two workers against one: 0.20 s against 0.17 s at
# N = 1e6 and 0.27 s against 0.23 s at 2.5e6, then 0.18 s against 0.21 s at
# 4e6, 0.38 s against 0.53 s at 1e7 and 0.86 s against 1.29 s at 3e7
_POOL_MIN_N = 3_000_000


class EmpiricalCounts(NamedTuple):
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


class IntervalHit(NamedTuple):
    n: int
    side: str  # "left" or "right"
    value: int
    repr: KFullRepr


class TableComparison(NamedTuple):
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
    (cell,) = _window_counts(k, n, n + 1)
    return cell


class _Shapes:
    """A window's proper shapes (M > 1), in ascending M: the exact radicands
    M (a list), float64 seeds lam of M^(1/k), and ok, True where the seed is
    proven: lam (1 - _W) < M^(1/k) < lam (1 + _W).

    The proof uses only correctly rounded float64 products and the correctly
    rounded float(M).  With u = 2^-53, c = 2 (k + 1) u and hi = lam (1 + _W)
    as rounded, the k - 1 products of hi^k round by at most (1 + u)^(k-1)
    and M <= float(M) (1 + u), so hi^k > float(M) (1 + c) as computed, itself
    rounded by 1 - u, gives hi^k > M exactly since (1 + c)(1 - u) >= (1 + u)^k;
    likewise lo^k < float(M) (1 - c) gives lo^k < M.  A shape whose check
    fails (or whose M leaves the float range) keeps ok False, and every
    floor that involves it is decided in integers.  lam is an optional
    seed in place of the computed one.
    """

    def __init__(self, k: int, Ms: list, lam=None):
        import numpy as np

        self.k = k
        self.M = Ms
        Mf = np.fromiter((float(M) if M.bit_length() < 1024 else math.inf for M in Ms),
                         dtype=np.float64, count=len(Ms))
        with np.errstate(over="ignore", invalid="ignore"):
            if lam is None:
                lam = Mf ** (1.0 / k)
                lam += lam * (Mf / _power(lam, k) - 1) / k  # one Newton step
            c = 2 * (k + 1) * 2.0**-53
            hi = _power(lam * (1 + _W), k)
            ok = (np.isfinite(hi) & (hi > Mf * (1 + c))
                  & (_power(lam * (1 - _W), k) < Mf * (1 - c)))
        self.ok = ok
        self.all_ok = bool(ok.all())
        self.lam = np.where(ok, lam, 1.0)

    def floor_div(self, R: int, n: int):
        """A(R) = floor(R / M^(1/k)), the number of a >= 1 with a^k M < R^k,
        for the first n shapes."""
        return _floors(R / self.lam[:n], self.ok[:n],
                       lambda i: introot((R**self.k - 1) // self.M[i], self.k))

    def floor_roots(self, s, a):
        """r = floor(a M^(1/k)) for the pairs (shape s, a), as int64."""
        ok = None if self.all_ok else self.ok[s]
        return _floors(a * self.lam[s], ok,
                       lambda i: introot(int(a[i]) ** self.k * self.M[s[i]], self.k))


def _power(x, k: int):
    """x^k by k - 1 rounded float products."""
    p = x.copy()
    for _ in range(k - 1):
        p *= x
    return p


def _floors(x, ok, exact):
    """floor(X) as int64 for irrational X, given float64 x with
    |X - x| < 2 _W x wherever ok (everywhere if ok is None).  exact(i)
    decides entry i where ok is False or where x (1 -+ 4 _W), as rounded,
    holds an integer; the factor 2 of slack pays for that rounding.

    For X = a M^(1/k) and a proven seed, M^(1/k) / lam lies within
    (1 -+ _W)(1 -+ u) (the widened seed is itself rounded, u = 2^-53), and
    x = a * lam rounds a and the product, so X / x lies within
    (1 -+ _W)(1 -+ u)^3, inside 1 -+ 2 _W as _W = 32 u; the same holds for
    X = R / M^(1/k).  Past x = 2^46 the interval is wider than 2 and every
    entry is exact.
    """
    import numpy as np

    e = x * (4 * _W)
    f = np.floor(x - e)
    tie = f != np.floor(x + e)
    if ok is not None:
        tie |= ~ok
    f[tie] = 0
    out = f.astype(np.int64)
    for i in np.flatnonzero(tie).tolist():
        out[i] = exact(i)
    return out


def _window_shapes(k: int, hi: int, keep=frozenset()):
    """The radicands M > 1 of the shapes with M^(1/k) < hi, ascending, and
    the index among them of each tuple b in keep (len(Ms), past the end,
    for a b that is not there)."""
    shapes = [(M, b) for M, b in shape_tuples(k, hi**k - 1) if M > 1]
    at = {b: len(shapes) for b in keep}
    at.update((b, i) for i, (_, b) in enumerate(shapes) if b in at)
    return [M for M, _ in shapes], at


def _integer_route(k: int, width: int, Ms: list) -> bool:
    """True when the integer route's work for a window of width roots stays
    below _INT_PAIRS, counted in (shape, a) pairs: about width M^(-1/k)
    pairs per shape, plus _SHAPE_PAIRS k for the shape's own introots, whose
    numbers grow with k.  The sum runs in ascending M and stops once it
    passes; a radicand past the float range counts its introots alone."""
    budget = _INT_PAIRS / width
    shape = _SHAPE_PAIRS * k / width
    total = 0.0
    for M in Ms:
        total += shape + (M ** (-1.0 / k) if M.bit_length() < 1024 else 0.0)
        if total >= budget:
            return False
    return True


def _below(k: int, M: int, L: int, R: int) -> int:
    """A(R) = floor(R / M^(1/k)) from the shape's fixed-point root
    L = floor(M^(1/k) 2^_F): R / M^(1/k) lies strictly between
    R 2^_F / (L + 1) and R 2^_F / L (M^(1/k) is irrational), so where the
    two floors agree that is A(R); where they differ, introot decides."""
    q = (R << _F) // (L + 1)
    return q if q == (R << _F) // L else introot((R**k - 1) // M, k)


def _int_roots(k: int, M: int, lo: int, hi: int) -> list:
    """The integer route for one shape: floor(a M^(1/k)) - lo for
    A(lo) < a <= A(hi), ascending, as a list.

    With L = floor(M^(1/k) 2^_F) < M^(1/k) 2^_F < L + 1 (M^(1/k) is
    irrational) and acc = a L - lo 2^_F, the value (a M^(1/k) - lo) 2^_F lies
    in (acc, acc + a).  Where acc mod 2^_F <= 2^_F - a that interval holds
    no multiple of 2^_F, so the floor is acc >> _F; otherwise (a carry may
    cross bit _F) the floor is taken by introot.  A(lo) and A(hi) are read
    from L as well (_below), so a shape takes one big introot, not three.
    """
    L = introot(M << k * _F, k)
    a0 = _below(k, M, L, lo)
    a1 = _below(k, M, L, hi)
    if a0 == a1:
        return []
    acc = a0 * L - (lo << _F)
    mask = (1 << _F) - 1
    lim = mask + 1 - a1  # at most 2^_F - a for every a of the run
    roots = []
    for a in range(a0 + 1, a1 + 1):
        acc += L
        roots.append(acc >> _F if acc & mask <= lim else introot(a**k * M, k) - lo)
    return roots


def _int_window(k: int, lo: int, hi: int, Ms: list, keep=()):
    """The integer route of the window: the list h with h[i] = number of
    proper k-full v with floor(v^(1/k)) = lo + i, lo <= lo + i < hi, and
    kept[i] = the roots of shape Ms[i], less lo, for each index i in keep."""
    h = [0] * (hi - lo)
    kept = {}
    for i, M in enumerate(Ms):
        roots = _int_roots(k, M, lo, hi)
        for r in roots:
            h[r] += 1
        if i in keep:
            kept[i] = roots
    return h, kept


def _root_blocks(k: int, lo: int, hi: int, Ms: list, keep_at: dict):
    """The numpy route of the window: yield (n0, h, kept) for consecutive
    blocks of roots between lo and hi, where h[i] = number of proper k-full v
    with floor(v^(1/k)) = n0 + i, and kept[b] = the int64 array of roots
    n0 <= r < n0 + len(h) of shape b, for each tuple b in keep_at, which
    maps b to its index in Ms (see _window_shapes).

    Each block after the first starts at the last root of the one before,
    carried over, so the n with n and n + 1 in one block,
    n0 <= n < n0 + len(h) - 1, cover lo <= n < hi - 1 once each: left(n)
    is h[n - n0] and right(n) is h[n + 1 - n0].

    A block [s0, s1) holds, for every shape with M^(1/k) < s1, the a-values
    A(s0) < a <= A(s1) (see _Shapes.floor_div), walked as one flat run of
    (shape, a) pairs, with r = floor(a M^(1/k)) decided by _floors and
    tallied with bincount.  Its width in roots is sized so that a block holds
    about max(_BLOCK, shapes) pairs: memory is O(shapes + block), and the
    per-block work over the shapes never outgrows the pairs.
    """
    import numpy as np

    sh = _Shapes(k, Ms)
    density = float(np.sum(1.0 / sh.lam))  # pairs per root, about
    width = max(1, int(max(_BLOCK, len(Ms)) / max(density, 1.0)))
    A = sh.floor_div(lo, bisect_left(Ms, lo**k))
    carry = None
    s0 = lo
    while s0 < hi:
        s1 = min(s0 + width, hi)
        n1 = bisect_left(Ms, s1**k)  # the shapes with M^(1/k) < s1
        A1 = sh.floor_div(s1, n1)
        c = A1.copy()
        c[: len(A)] -= A
        off = np.cumsum(c) - c
        s = np.repeat(np.arange(n1), c)
        # a = A(s0) + 1 + (position within the shape's run)
        a = np.arange(len(s), dtype=np.int64) - np.repeat(off - (A1 - c) - 1, c)
        r = sh.floor_roots(s, a)
        h = np.bincount(r - s0, minlength=s1 - s0)
        kept = {b: r[off[i] : off[i] + c[i]] if i < n1 else r[:0] for b, i in keep_at.items()}
        if carry is None:
            n0 = s0
        else:
            n0 = s0 - 1
            h = np.concatenate((carry[0], h))
            kept = {b: np.concatenate((carry[1][b], v)) for b, v in kept.items()}
        yield n0, h, kept
        carry = (h[-1:], {b: v[v == s1 - 1] for b, v in kept.items()})
        A, s0 = A1, s1


def _pair_tally(h: list) -> dict:
    """{(l, m): count} over the neighbours (h[i], h[i + 1]) of a list of
    small ints >= 0, each pair coded as l 2^s + m, s = max(h).bit_length().

    The codes are made for the whole list at once: h[:-1] and h[1:] are
    packed as unsigned items of at least 2s bits, read as two integers, and
    the first, shifted by s, is added to the second; no item carries into
    its neighbour, so the sum's items are the codes, tallied with a Counter
    without building a tuple per pair."""
    s = max(h).bit_length()
    code = next(c for c in "BHIQ" if 2 * s <= 8 * array(c).itemsize)
    items = array(code, h).tobytes()
    w = len(items) // len(h)
    x = ((int.from_bytes(items[:-w], sys.byteorder) << s)
         + int.from_bytes(items[w:], sys.byteorder))
    tally = Counter(memoryview(x.to_bytes(len(items) - w, sys.byteorder)).cast(code))
    mask = (1 << s) - 1
    return {(c >> s, c & mask): n for c, n in tally.items()}


def _window_counts(k: int, lo: int, hi: int) -> dict:
    """Cell counts for n in [lo, hi): left(n) = hits at n and right(n) =
    hits at n + 1, tallied by _pair_tally on the integer route and per
    root block with bincount on the numpy route."""
    Ms, at = _window_shapes(k, hi + 1)
    if _integer_route(k, hi + 1 - lo, Ms):
        h, _ = _int_window(k, lo, hi + 1, Ms)
        return _pair_tally(h)
    import numpy as np

    counts = {}
    for _, h, _ in _root_blocks(k, lo, hi + 1, Ms, at):
        W = int(h.max()) + 1
        tally = np.bincount(h[:-1] * W + h[1:])
        for code in np.flatnonzero(tally).tolist():
            cell = (code // W, code % W)
            counts[cell] = counts.get(cell, 0) + int(tally[code])
    return counts


def empirical_table(k: int, N: int, threads: int = 1) -> EmpiricalCounts:
    """Exact cell counts for 1 <= n <= N via a single enumeration sweep,
    over disjoint n-windows merged deterministically.  threads is an upper
    bound on the worker count, one per window: it is clamped to the CPUs
    present, and below N = _POOL_MIN_N the run is one serial window in this
    process, since there the pool's start-up costs more than the second
    window saves.  The counts do not depend on the windows."""
    if k < 2 or N < 1:
        raise ValueError("need k >= 2, N >= 1")
    bound = (N + 2) ** k - 1
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or N < max(4 * workers, _POOL_MIN_N):
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
    # n is a member iff its hit counts are |I| and |J| and every shape of I
    # (of J) lands left (right) of n; one shape hits (n^k, (n+2)^k) at most
    # once, so the counts then leave room for no other shape
    want_left, want_right = I.key_set(), J.key_set()
    Ms, at = _window_shapes(k, N + 2, want_left | want_right)
    if _integer_route(k, N + 1, Ms):
        h, kept = _int_window(k, 1, N + 2, Ms, set(at.values()))
        # root n sits at h[n - 1]: left of n is root n, right of n is n + 1
        left = [set(kept.get(at[b], ())) for b in want_left]
        right = [set(kept.get(at[b], ())) for b in want_right]
        return [i + 1 for i in range(N)
                if h[i] == len(want_left) and h[i + 1] == len(want_right)
                and all(i in s for s in left) and all(i + 1 in s for s in right)]
    import numpy as np

    out = []
    for n0, h, kept in _root_blocks(k, 1, N + 2, Ms, at):
        m = len(h) - 1
        member = (h[:-1] == len(want_left)) & (h[1:] == len(want_right))
        for b in want_left:
            member &= _marks(kept[b] - n0, m)  # left of n: r = n
        for b in want_right:
            member &= _marks(kept[b] - n0 - 1, m)  # right of n: r = n + 1
        out.extend((np.flatnonzero(member) + n0).tolist())
    return out


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


@lru_cache(maxsize=4096)
def _lam(M: int, k: int, dps: int):
    """M^(1/k) at dps digits, an mpf; verify's samples reach few (M, k), each
    often."""
    from mpmath import mp, mpf

    with mp.workdps(dps):
        return mp.root(mpf(M), k)


def lemma_check(n: int, e: LambdaElement, j: int) -> tuple:
    """(criterion, direct): the fractional-part test {n/lam} > 1 - j/lam and
    the exact interval-membership test.  The criterion is decided by
    escalating precision, never by floating-point tie-breaking."""
    direct = hit_count(n, e, j) >= 1
    M = e.radicand()
    k = e.k
    # float64 first, with the same envelope at eps = 2^-52: lam is the float
    # of the 25-digit root, each of n / lam, 1 - j / lam and the difference
    # errs by under 2 ulp, and t - floor(t) is exact
    if n < 2**53:
        lam = float(_lam(M, k, 25))
        t = n / lam
        frac = t - math.floor(t)
        err = 2.0**-52 * (abs(t) + 4) * 16
        if err < frac < 1 - err:
            diff = frac - (1 - j / lam)
            if abs(diff) > 2 * err:
                return (diff > 0, direct)
    from mpmath import mp

    dps = 25
    while True:
        lam = _lam(M, k, dps)
        with mp.workdps(dps):
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
