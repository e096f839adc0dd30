import random

import pytest
from mpmath import mpf

from kfull import empirical
from kfull.arith import factorize, introot
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


def test_empirical_threads_deterministic():
    base = empirical_table(2, 3000, threads=1)
    try:
        multi = empirical_table(2, 3000, threads=2)
    except OSError:
        pytest.skip("process pool unavailable in sandbox")
    assert base.counts == multi.counts


def test_empirical_workers_clamped(monkeypatch):
    # a recording stand-in for the pool: runs the windows in-process, so no
    # worker process starts
    seen = []

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

    monkeypatch.setattr(empirical, "ProcessPoolExecutor", RecordingPool)
    base = empirical_table(2, 3000, threads=1)
    monkeypatch.setattr(empirical.os, "cpu_count", lambda: 3)
    assert empirical_table(2, 3000, threads=10**6).counts == base.counts
    assert seen == [3, 3]
    assert empirical_table(2, 3000, threads=2).counts == base.counts
    assert seen == [3, 3, 2, 2]
    monkeypatch.setattr(empirical.os, "cpu_count", lambda: None)
    assert empirical_table(2, 3000, threads=8).counts == base.counts
    assert seen == [3, 3, 2, 2]  # one CPU: a single in-process window


def test_members_B_example_list():
    empty = SubsetSpec(2, ())
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


def test_lemma_check_examples():
    e = LambdaElement(2, (2,))
    assert lemma_check(2, e, 1) == (True, True)
    assert lemma_check(3, e, 1) == (False, False)
    with pytest.raises(ValueError):
        hit_count(2, e, 3)


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
