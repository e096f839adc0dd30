import concurrent.futures
import math
import random
from collections import Counter

import pytest
from mpmath import mp, mpf

from kfull import empirical
from kfull.arith import enumerate_kfull, factorize, introot
from kfull.bounded import ErrorBoundedReal
from kfull.density import DensityTable, SubsetSpec, build_table
from kfull.empirical import (
    EmpiricalCounts,
    classify_pair,
    compare_tables,
    empirical_table,
    hit_count,
    interval_hits,
    lemma_check,
    members_B,
)
from kfull.shapes import LambdaElement, enumerate_lambda

from conftest import MEMBERS_EMPTY_2_40


def is_proper_kfull_by_factoring(v, k):
    if all(e >= k for _, e in factorize(v)):
        return introot(v, k) ** k != v
    return False


def test_classify_pair_examples():
    assert classify_pair(3, 2) == (0, 0)
    assert classify_pair(2, 2) == (1, 0)
    assert classify_pair(1, 2) == (0, 1)


def test_classify_pair_against_factoring_oracle():
    for n in range(1, 151):
        lo, mid, hi = n**2, (n + 1) ** 2, (n + 2) ** 2
        left = sum(1 for v in range(lo + 1, mid) if is_proper_kfull_by_factoring(v, 2))
        right = sum(1 for v in range(mid + 1, hi) if is_proper_kfull_by_factoring(v, 2))
        assert classify_pair(n, 2) == (left, right), n


def test_classify_pair_k3_against_factoring_oracle():
    # one pass over v < 62^3 buckets each proper 3-full v by its cube root
    hits = [0] * 62
    for v in range(2, 62**3):
        if is_proper_kfull_by_factoring(v, 3):
            hits[introot(v, 3)] += 1
    for n in range(1, 61):
        assert classify_pair(n, 3) == (hits[n], hits[n + 1]), n


def test_interval_hits_structure():
    hits = interval_hits(2, 2)
    assert len(hits) == 1 and hits[0].side == "left" and hits[0].value == 8
    # per-shape hits are unique across the double interval
    for n in (10, 35, 99):
        hits = interval_hits(n, 2)
        shapes = [h.repr.b for h in hits]
        assert len(set(shapes)) == len(shapes)
        l, m = classify_pair(n, 2)
        assert l == sum(1 for h in hits if h.side == "left")
        assert m == sum(1 for h in hits if h.side == "right")


def test_empirical_table_small_matches_classify():
    for k, N in ((2, 200), (3, 60)):
        emp = empirical_table(k, N)
        expect = {}
        for n in range(1, N + 1):
            cell = classify_pair(n, k)
            expect[cell] = expect.get(cell, 0) + 1
        assert emp.counts == expect
        assert emp.total == N


def test_empirical_table_degenerate():
    emp = empirical_table(2, 1)
    assert emp.total == 1 and sum(emp.counts.values()) == 1


def test_empirical_table_known_members_in_cell00():
    emp = empirical_table(2, 10)
    assert emp.counts.get((0, 0), 0) >= 2  # n = 3 and n = 6 at least


def test_empirical_threads_deterministic(monkeypatch):
    monkeypatch.setattr(empirical, "_POOL_MIN_N", 0)  # a real pool at a small N
    base = empirical_table(2, 3000, threads=1)
    try:
        multi = empirical_table(2, 3000, threads=2)
    except OSError:
        pytest.skip("process pool unavailable in sandbox")
    assert base.counts == multi.counts


def recording_pool(seen):
    """A stand-in for the process pool that runs the windows in-process (so
    no worker process starts) and records its size and job count in seen."""

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            seen.append(len(jobs))
            return map(fn, jobs)

    return RecordingPool


def oracle_counts(k, N):
    """Cell counts by the heap-merge stream: bucket every proper k-full
    v < (N+2)^k by floor(v^(1/k)), then read left(n), right(n) off it."""
    hits = [0] * (N + 2)
    for v, _ in enumerate_kfull(k, (N + 2) ** k - 1):
        hits[introot(v, k)] += 1
    counts = {}
    for n in range(1, N + 1):
        cell = (hits[n], hits[n + 1])
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def each_route(monkeypatch):
    """Yield once per route of the window, after forcing every window onto it
    through the pair threshold; on the next step, check that the body ran
    that route and no other."""
    ran = []
    for name in ("_int_window", "_root_blocks"):
        fn = getattr(empirical, name)
        monkeypatch.setattr(empirical, name,
                            lambda *a, fn=fn, name=name: ran.append(name) or fn(*a))
    for route, pairs in (("_int_window", math.inf), ("_root_blocks", 0)):
        monkeypatch.setattr(empirical, "_INT_PAIRS", pairs)
        yield route
        assert ran and set(ran) == {route}
        ran.clear()


@pytest.mark.parametrize("k,N", [(k, N) for k in (2, 3, 4) for N in (1, 2, 3, 997)]
                         + [(6, 1500), (12, 40), (80, 6)])
def test_empirical_table_matches_heap_merge_oracle(k, N):
    # k=6, N=1500 and k=12, N=40 reach past 2^63: the Python-int route;
    # k=80, N=6 has about 300 hits at one n, past a byte-wide counter
    assert empirical_table(k, N).counts == oracle_counts(k, N)


def test_empirical_window_straddling_int64(monkeypatch):
    # 55201^4 > 2^63 > 55100^4: on the numpy route one window holds chunks
    # on both sides of int64
    want = oracle_counts(4, 55_200)
    for _ in each_route(monkeypatch):
        assert empirical_table(4, 55_200).counts == want


@pytest.mark.parametrize("k,N", [(2, 997), (3, 997), (4, 300), (2, 3000)])
def test_empirical_window_edges_match_oracle(monkeypatch, k, N):
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(seen))
    monkeypatch.setattr(empirical.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(empirical, "_POOL_MIN_N", 0)
    want = oracle_counts(k, N)
    for _ in each_route(monkeypatch):
        assert empirical_table(k, N, threads=3).counts == want
    assert seen == [3, 3] * 2


def test_pool_starts_only_from_its_threshold(monkeypatch):
    # below _POOL_MIN_N, --threads 2 is one in-process window; from it on, a
    # pool of two; both give the heap-merge oracle's counts
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(seen))
    monkeypatch.setattr(empirical.os, "cpu_count", lambda: 2)
    assert empirical_table(2, 3000, threads=2).counts == oracle_counts(2, 3000)
    assert 3000 < empirical._POOL_MIN_N and seen == []
    monkeypatch.setattr(empirical, "_POOL_MIN_N", 3000)
    assert empirical_table(2, 2999, threads=2).counts == oracle_counts(2, 2999)
    assert seen == []
    assert empirical_table(2, 3000, threads=2).counts == oracle_counts(2, 3000)
    assert seen == [2, 2]


@pytest.mark.parametrize("k,M,a0,a1", [
    (2, 8, 1, 3000),  # a^k M below 2^63
    (4, 2**5, 20_000, 23_000),  # a^4 M passes 2^63
])
@pytest.mark.parametrize("skew", [0.999, 1.0, 1.001])
def test_floor_roots_fix_up_repairs_a_bad_seed(k, M, a0, a1, skew):
    # a seed off by up to tens of units in either direction must still come
    # out exact: the seed is proven or set aside, never assumed
    np = pytest.importorskip("numpy")
    exact = [introot(a**k * M, k) for a in range(a0, a1)]
    shapes = empirical._Shapes(k, [M], lam=np.array([skew * M ** (1 / k)]))
    assert bool(shapes.ok[0]) == (skew == 1.0)
    a = np.arange(a0, a1, dtype=np.int64)
    r = shapes.floor_roots(np.zeros(len(a), dtype=np.int64), a)
    assert r.dtype == "int64" and r.tolist() == exact


def test_radicands_past_the_float_range_are_decided_in_integers():
    # at k = 200 a radicand past 2^1024 still has a small root, 3^3.25
    np = pytest.importorskip("numpy")
    k, M = 200, 3**650
    shapes = empirical._Shapes(k, [2**201, M])
    assert shapes.ok.tolist() == [True, False]
    s = np.array([0, 1, 1, 1], dtype=np.int64)
    a = np.array([5, 1, 2, 7], dtype=np.int64)
    Ms = [2**201, M]
    assert shapes.floor_roots(s, a).tolist() == [
        introot(int(v) ** k * Ms[i], k) for i, v in zip(s, a)]
    assert shapes.floor_div(100, 2).tolist() == [
        introot((100**k - 1) // m, k) for m in Ms] == [49, 2]


# x^2 - 2 y^2 = 1 with x = 131836323: 2 y sqrt(2) lies 7.6e-9 below the
# integer 2 x, inside half an ulp of the double product; and
# x^2 - 2 y^2 = -1 with x = 1855077841: 2 x / sqrt(8) lies just below y,
# and the double quotient rounds up to y
PELL = (131_836_323, 93_222_358)
PELL_MINUS = (1_855_077_841, 1_311_738_121)


def test_floor_roots_decides_a_forced_near_tie():
    np = pytest.importorskip("numpy")
    x, y = PELL
    assert x * x - 2 * y * y == 1
    lam = np.sqrt(np.array([8.0]))  # correctly rounded, so proven
    # a kernel that trusted the seed would put this pair one root too high
    assert int(np.floor(y * lam[0])) == 2 * x
    shapes = empirical._Shapes(2, [8], lam=lam)
    assert bool(shapes.ok[0])
    a = np.array([y - 1, y, y + 1], dtype=np.int64)
    r = shapes.floor_roots(np.zeros(3, dtype=np.int64), a)
    assert r.tolist() == [introot(8 * int(v) ** 2, 2) for v in a]
    assert r[1] == 2 * x - 1
    # the a-bounds face the same kind of tie: A(2x) = floor(2x / sqrt(8))
    x, y = PELL_MINUS
    assert x * x - 2 * y * y == -1
    assert int(np.floor(2 * x / lam[0])) == y
    assert shapes.floor_div(2 * x, 1).tolist() == [y - 1] == [introot((4 * x * x - 1) // 8, 2)]


@pytest.mark.parametrize("F", [64, 3])
def test_int_roots_decide_the_pell_near_ties(monkeypatch, F):
    # the pairs that defeat a float floor, through the integer kernel, at
    # its own fraction bits and at 3 bits, where the carry check sends them
    # to introot
    monkeypatch.setattr(empirical, "_F", F)
    x, y = PELL
    lo = 2 * x - 3
    roots = empirical._int_roots(2, 8, lo, 2 * x + 3)
    # a = y - 1, y, y + 1: y sqrt(8) lies just below 2x
    assert [lo + r for r in roots] == [introot(8 * a * a, 2) for a in (y - 1, y, y + 1)]
    assert lo + roots[1] == 2 * x - 1
    # A(2x) = y - 1, as 2x / sqrt(8) lies just below y: the window from 2x
    # starts at a = y, whose root, just above 2x, is 2x itself
    x, y = PELL_MINUS
    roots = empirical._int_roots(2, 8, 2 * x, 2 * x + 3)
    assert roots == [introot(8 * a * a, 2) - 2 * x for a in (y, y + 1)] and roots[0] == 0


@pytest.mark.parametrize("top", [0, 1, 15, 16, 300, 2**16, 2**31])
def test_pair_tally_matches_tuple_counts(top):
    # codes of one, two, four and eight bytes, and a list of one pair
    rng = random.Random(top)
    for n in (2, 3, 1000):
        h = [rng.choice((0, top, rng.randint(0, top))) for _ in range(n)]
        want = Counter(zip(h, h[1:]))
        assert empirical._pair_tally(h) == want
        assert list(empirical._pair_tally(h)) == list(want)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_bounds_fall_back_to_introot_where_the_fixed_point_floors_differ(monkeypatch, k):
    # at 3 fraction bits R 2^F / (L + 1) and R 2^F / L often hold an integer
    # between them; there A(R) comes from introot, elsewhere from the floors,
    # and every A(R) and every root must be introot's
    F, top = 3, 120
    monkeypatch.setattr(empirical, "_F", F)
    Ms, _ = empirical._window_shapes(k, top)
    differ = 0
    for M in Ms[:40]:
        L = introot(M << k * F, k)
        A = [0] + [introot((R**k - 1) // M, k) for R in range(1, top + 1)]
        for R in range(1, top + 1):
            differ += (R << F) // (L + 1) != (R << F) // L
            assert empirical._below(k, M, L, R) == A[R]
        for lo, hi in ((1, top), (17, 90), (top - 1, top)):
            assert empirical._int_roots(k, M, lo, hi) == [
                introot(a**k * M, k) - lo for a in range(A[lo] + 1, A[hi] + 1)]
    assert differ > 0


@pytest.mark.parametrize("k,N", [(2, 2000), (3, 400), (5, 120)])
def test_forced_carries_match_heap_merge(monkeypatch, k, N):
    # with 3 fraction bits nearly every pair may carry, so most roots come
    # from the introot fall-back and the rest from the shift; both must agree
    # with the heap merge
    monkeypatch.setattr(empirical, "_INT_PAIRS", math.inf)
    empty = SubsetSpec(k, ())
    two = SubsetSpec(k, ((2,) + (1,) * (k - 2),))
    subsets = ((empty, empty), (two, empty), (empty, two))
    want = [members_by_interval_hits(k, I, J, N) for I, J in subsets]
    counts = oracle_counts(k, N)
    Ms, _ = empirical._window_shapes(k, N + 2)
    calls = {}
    for F in (64, 3):
        monkeypatch.setattr(empirical, "_F", F)
        seen = []
        monkeypatch.setattr(empirical, "introot", lambda n, k: seen.append(1) or introot(n, k))
        h, _ = empirical._int_window(k, 1, N + 2, Ms)
        calls[F] = len(seen)
        monkeypatch.setattr(empirical, "introot", introot)
        assert empirical_table(k, N).counts == counts
        assert [members_B(k, I, J, N) for I, J in subsets] == want
    # the fall-backs are the calls past the three per shape at 64 bits
    assert sum(h) / 2 < calls[3] - calls[64] < sum(h)


@pytest.mark.parametrize("k,lo,hi", [
    (2, 1, 5000), (2, 777, 3001), (3, 5, 2500), (4, 1, 400),
    (5, 1, 1200), (6, 1, 500),  # a^k M past 2^63 for most pairs
])
@pytest.mark.parametrize("block", [1, 7, 100])
def test_root_blocks_match_heap_merge(monkeypatch, k, lo, hi, block):
    # tiny blocks put block edges inside every shape's run of a-values; the
    # hits, the carried boundary root and the kept roots must still be exact
    monkeypatch.setattr(empirical, "_BLOCK", block)
    hits = {}
    roots = {}
    for v, rep in enumerate_kfull(k, hi**k - 1):
        r = introot(v, k)
        if r >= lo:
            hits[r] = hits.get(r, 0) + 1
            roots.setdefault(rep.b, []).append(r)
    keep = {b for b in list(roots)[:5]} | {(10**6,) + (1,) * (k - 2)}
    Ms, at = empirical._window_shapes(k, hi, keep)
    seen = []
    for n0, h, kept in empirical._root_blocks(k, lo, hi, Ms, at):
        assert n0 == (seen[-1] if seen else lo)
        assert h.tolist() == [hits.get(r, 0) for r in range(n0, n0 + len(h))]
        for b in keep:
            assert kept[b].tolist() == [r for r in roots.get(b, ()) if n0 <= r < n0 + len(h)]
        seen.append(n0 + len(h) - 1)
    assert seen[-1] == hi - 1
    assert len(seen) > 1 or block == 100
    # the integer route's twin: one window, the kept roots less lo
    h, kept = empirical._int_window(k, lo, hi, Ms, set(at.values()))
    assert h == [hits.get(r, 0) for r in range(lo, hi)]
    for b in keep:
        assert [lo + r for r in kept.get(at[b], [])] == roots.get(b, [])


@pytest.mark.parametrize("k,N", [(5, 60), (6, 40)])
def test_members_B_and_classify_pair_past_int64_match_interval_hits(monkeypatch, k, N):
    empty = SubsetSpec(k, ())
    one = SubsetSpec(k, ((2,) + (1,) * (k - 2),))
    cells = []
    for n in range(1, N + 1):
        hits = interval_hits(n, k)
        cells.append((sum(h.side == "left" for h in hits),
                      sum(h.side == "right" for h in hits)))
    for _ in each_route(monkeypatch):
        for I, J in ((empty, empty), (one, empty), (empty, one)):
            assert members_B(k, I, J, N) == members_by_interval_hits(k, I, J, N)
        assert [classify_pair(n, k) for n in range(1, N + 1)] == cells


def test_empirical_workers_clamped(monkeypatch):
    seen = []
    monkeypatch.setattr(empirical, "_POOL_MIN_N", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(seen))
    base = empirical_table(2, 3000, threads=1)
    monkeypatch.setattr(empirical.os, "cpu_count", lambda: 3)
    assert empirical_table(2, 3000, threads=10**6).counts == base.counts
    assert seen == [3, 3]
    assert empirical_table(2, 3000, threads=2).counts == base.counts
    assert seen == [3, 3, 2, 2]
    monkeypatch.setattr(empirical.os, "cpu_count", lambda: None)
    assert empirical_table(2, 3000, threads=8).counts == base.counts
    assert seen == [3, 3, 2, 2]  # one CPU: a single in-process window


def test_members_B_example_list(monkeypatch):
    empty = SubsetSpec(2, ())
    for _ in each_route(monkeypatch):
        assert members_B(2, empty, empty, 40) == MEMBERS_EMPTY_2_40
        assert members_B(2, empty, empty, 2) == []


def test_members_B_prefix_stability():
    empty = SubsetSpec(2, ())
    long = members_B(2, empty, empty, 120)
    short = members_B(2, empty, empty, 40)
    assert long[: len(short)] == short


def test_members_B_single_shape_left():
    I = SubsetSpec(2, ((2,),))
    empty = SubsetSpec(2, ())
    members = members_B(2, I, empty, 100)
    assert members, "expected nonempty membership"
    for n in members:
        hits = interval_hits(n, 2)
        left = [h for h in hits if h.side == "left"]
        right = [h for h in hits if h.side == "right"]
        assert [h.repr.b for h in left] == [(2,)]
        assert right == []
    with pytest.raises(ValueError):
        members_B(2, I, I, 10)


def members_by_interval_hits(k, I, J, N):
    want_left, want_right = I.key_set(), J.key_set()
    out = []
    for n in range(1, N + 1):
        hits = interval_hits(n, k)
        left = {h.repr.b for h in hits if h.side == "left"}
        right = {h.repr.b for h in hits if h.side == "right"}
        if left == want_left and right == want_right:
            out.append(n)
    return out


@pytest.mark.parametrize("I,J", [
    ((), ()), (((2,),), ()), ((), ((2,),)), (((2,),), ((3,),)), (((3,),), ((2,),)),
    (((5,),), ()),
])
def test_members_B_matches_interval_hits(monkeypatch, I, J):
    I, J = SubsetSpec(2, I), SubsetSpec(2, J)
    want = members_by_interval_hits(2, I, J, 400)
    assert want  # every pair has members below 400
    for _ in each_route(monkeypatch):
        assert members_B(2, I, J, 400) == want


def test_members_B_edges(monkeypatch):
    empty = SubsetSpec(2, ())
    two = SubsetSpec(2, ((2,),))
    big = SubsetSpec(2, ((97,),))
    k3 = SubsetSpec(3, ((2, 1),))
    for _ in each_route(monkeypatch):
        for N in (-1, 0, 1, 2):
            for I, J in ((empty, empty), (two, empty), (empty, two)):
                assert members_B(2, I, J, N) == members_by_interval_hits(2, I, J, N)
        assert members_B(2, empty, two, 1) == [1]  # 8 lies in (4, 9)
        # a shape too large to enter the window has no members
        assert members_B(2, big, empty, 50) == []
        assert members_B(3, k3, SubsetSpec(3, ()), 60) == members_by_interval_hits(
            3, k3, SubsetSpec(3, ()), 60)


def test_lemma_check_examples():
    e = LambdaElement(2, (2,))
    assert lemma_check(2, e, 1) == (True, True)
    assert lemma_check(3, e, 1) == (False, False)
    with pytest.raises(ValueError):
        hit_count(2, e, 3)


def test_lemma_check_reads_one_root_per_shape_and_precision():
    e = LambdaElement(2, (2,))
    empirical._lam.cache_clear()
    for n in range(1, 41):
        lemma_check(n, e, 1)
    info = empirical._lam.cache_info()
    # every escalation level of the one shape is computed once
    assert info.misses == info.currsize and info.hits >= 40 - info.misses
    with mp.workdps(25):
        fresh = mp.root(mpf(e.radicand()), 2)
    assert empirical._lam(e.radicand(), 2, 25)._mpf_ == fresh._mpf_


def test_lemma_j2_weaker_than_j1():
    rng = random.Random(7)
    elems = enumerate_lambda(2, 200)
    for _ in range(300):
        n = rng.randrange(1, 5000)
        e = rng.choice(elems)
        c1, d1 = lemma_check(n, e, 1)
        c2, d2 = lemma_check(n, e, 2)
        assert c1 == d1 and c2 == d2
        if c1:
            assert c2  # widening the interval can only keep the hit


@pytest.mark.parametrize("k", [2, 3])
def test_lemma_randomized_equivalence(k):
    rng = random.Random(424242 + k)
    bound = 8.0
    while True:
        elems = enumerate_lambda(k, bound)
        if len(elems) >= 50:
            elems = elems[:50]
            break
        bound *= 2
    for _ in range(1000):
        n = rng.randrange(1, 100_001)
        e = rng.choice(elems)
        j = rng.choice((1, 2))
        crit, direct = lemma_check(n, e, j)
        assert crit == direct
        if direct:
            assert hit_count(n, e, j) == 1  # unique witness


def test_lemma_large_n_forces_precision_escalation():
    # at n ~ 1e12 the margin |{n/lam} - (1 - j/lam)| can be far below double
    # precision; the adaptive criterion must still match the exact route
    rng = random.Random(31337)
    elems = enumerate_lambda(2, 500)
    for _ in range(200):
        n = rng.randrange(10**11, 10**12)
        e = rng.choice(elems)
        j = rng.choice((1, 2))
        crit, direct = lemma_check(n, e, j)
        assert crit == direct


def test_compare_tables_exact_match_is_zero():
    counts = {(0, 0): 5, (0, 1): 11, (1, 1): 4}
    N = 20
    entries = {
        (l, m): ErrorBoundedReal(mpf(c) / N, 0)
        for (l, m), c in counts.items()
    }
    ana = DensityTable(2, 1, "direct", entries)
    emp = EmpiricalCounts(2, N, counts, 484)
    comp = compare_tables(emp, ana)
    assert comp.max_abs_deviation == 0.0


def test_compare_tables_k_mismatch():
    emp = EmpiricalCounts(2, 1, {(0, 0): 1}, 9)
    ana = build_table(3, 1)
    with pytest.raises(ValueError):
        compare_tables(emp, ana)


def test_compare_tables_real_run_small():
    emp = empirical_table(2, 2000)
    ana = build_table(2, max(max(l, m) for l, m in emp.counts))
    comp = compare_tables(emp, ana)
    assert comp.max_abs_deviation < 0.05  # loose at this tiny N
    assert all(val is not None for _, val, _ in comp.cells.values())


def _lemma_mpf(n, e, j):
    # the criterion by the mpf rungs alone, as lemma_check decided it before
    # its float64 rung
    M, k, dps = e.radicand(), e.k, 25
    while True:
        lam = empirical._lam(M, k, dps)
        with mp.workdps(dps):
            t = n / lam
            frac = t - mp.floor(t)
            err = mp.eps * (abs(t) + 4) * 16
            if err < frac < 1 - err and abs(frac - (1 - j / lam)) > 2 * err:
                return frac - (1 - j / lam) > 0
        dps *= 2


def _convergents(e, count=40):
    # the continued-fraction convergents p/q of lam = M^(1/k)
    with mp.workdps(120):
        x = mp.root(mpf(e.radicand()), e.k)
        p0, q0, p1, q1 = 1, 0, int(mp.floor(x)), 1
        out = []
        for _ in range(count):
            x = 1 / (x - mp.floor(x))
            a = int(mp.floor(x))
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            out.append((p1, q1))
    return out


def test_lemma_float_rung_matches_mpf_path(monkeypatch):
    from kfull.cli import enumerate_lambda_first

    # verify's samples, drawn as cli.run_verify draws them
    for k in (2, 3):
        rng = random.Random(987654321 + k)
        elements = enumerate_lambda_first(k, 50)
        for _ in range(2_000):
            n = rng.randrange(1, 100_001)
            e = rng.choice(elements)
            j = rng.choice((1, 2))
            assert lemma_check(n, e, j)[0] == _lemma_mpf(n, e, j), (n, e, j)
    # forced near-ties: for a convergent p/q of lam, n + j = p puts {n/lam}
    # within about 1/(q lam) of 1 - j/lam, and n = p puts n/lam next to an
    # integer; past p ~ 1e7 the float envelope must leave them to mpf
    reads = []
    lam = empirical._lam
    monkeypatch.setattr(empirical, "_lam", lambda M, k, dps: reads.append(dps) or lam(M, k, dps))
    deferred = 0
    for e in enumerate_lambda_first(2, 4) + enumerate_lambda_first(3, 4):
        for p, _ in _convergents(e):
            if not 10**4 < p < 2**52:
                continue
            for n, j in ((p - 1, 1), (p - 2, 2), (p, 1), (p, 2), (p + 1, 1)):
                reads.clear()
                crit, direct = lemma_check(n, e, j)
                deferred += len(reads) > 1  # the float rung reads lam once
                assert crit == direct == _lemma_mpf(n, e, j), (n, e, j)
    assert deferred >= 10
