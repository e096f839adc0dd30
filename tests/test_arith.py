import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfull.arith import (
    KFullRepr,
    canonical_repr,
    enumerate_kfull,
    factorize,
    introot,
    is_kfull,
    is_prime,
    is_squarefree,
    mobius_sieve,
    moebius,
    next_prime,
    shape_tuples,
    squarefree_sieve,
)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(72) == ((2, 3), (3, 2))
    assert factorize(2**40) == ((2, 40),)


def test_factorize_range_enforced():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)
    assert factorize(2**63 - 1)  # boundary accepted


def test_factorize_reconstructs():
    for n in [2, 97, 1009, 2**20 * 3**5, 999_983 * 999_979, 2_147_483_647**2,
              1_009 * 999_979, 104_729**3]:
        f = factorize(n)
        v = 1
        for p, e in f:
            assert is_prime(p)
            v *= p**e
        assert v == n
        assert list(f) == sorted(f)


def test_factorize_large_semiprime():
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_is_prime_small():
    sieve = [False, False] + [True] * 999
    for i in range(2, 32):
        for j in range(2 * i, 1001, i):
            sieve[j] = False
    for n in range(1001):
        assert is_prime(n) == sieve[n], n
    primes = [n for n in range(1001) if sieve[n]]
    for n in range(-1, 997):
        assert next_prime(n) == next(p for p in primes if p > n), n


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(6) == 1
    assert moebius(30) == -1


def test_squarefree_examples():
    assert is_squarefree(1)
    assert is_squarefree(6)
    assert not is_squarefree(8)


def test_sieves_match_pointwise():
    mu = mobius_sieve(3000)
    sf = squarefree_sieve(3000)
    for n in range(1, 3001):
        assert mu[n] == moebius(n), n
        assert sf[n] == (1 if is_squarefree(n) else 0), n


def test_is_kfull_examples():
    assert is_kfull(8, 2)
    assert not is_kfull(12, 2)
    assert is_kfull(16, 3)
    assert is_kfull(1, 2) and is_kfull(1, 5)


def test_canonical_repr_examples():
    r = canonical_repr(72, 2)
    assert (r.a, r.b) == (3, (2,))
    r = canonical_repr(64, 2)
    assert (r.a, r.b) == (8, (1,))
    r = canonical_repr(16, 3)
    assert (r.a, r.b) == (1, (2, 1))


def test_canonical_repr_rejects_non_kfull():
    with pytest.raises(ValueError):
        canonical_repr(12, 2)
    with pytest.raises(ValueError):
        canonical_repr(4, 3)


def test_enumerate_examples():
    assert [v for v, _ in enumerate_kfull(2, 100, True)] == [8, 27, 32, 72]
    assert [v for v, _ in enumerate_kfull(2, 7, True)] == []
    assert [v for v, _ in enumerate_kfull(2, 100, False)] == [
        1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
    # the library refuses a bound below 1; the CLI prints no values for it
    with pytest.raises(ValueError, match="X >= 1"):
        enumerate_kfull(2, 0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumerate_roundtrip_sorted_unique(k):
    prev = 0
    for v, rep in enumerate_kfull(k, 10**5, False):
        assert v > prev  # ascending and duplicate-free
        prev = v
        assert rep.value() == v
        assert canonical_repr(v, k) == rep
        rep.validate()


def test_enumerate_agrees_with_is_kfull_oracle():
    """Membership via representation-driven enumeration must match the
    factorization test on every integer up to 1e5, for k in {2, 3, 4}."""
    limit = 10**5
    enum = {k: set(v for v, _ in enumerate_kfull(k, limit, False)) for k in (2, 3, 4)}
    proper = {k: set(v for v, _ in enumerate_kfull(k, limit, True)) for k in (2, 3, 4)}
    for n in range(1, limit + 1):
        exps = [e for _, e in factorize(n)]
        for k in (2, 3, 4):
            member = all(e >= k for e in exps)
            assert (n in enum[k]) == member
            root = introot(n, k)
            assert (n in proper[k]) == (member and root**k != n)


def test_count_sanity_squarefull_to_1e8():
    count = sum(1 for _ in enumerate_kfull(2, 10**8, False))
    assert abs(count / 10**4 - 2.173) / 2.173 < 0.05


def test_shape_tuples_sorted_by_radicand():
    shapes = shape_tuples(3, 10**6)
    assert shapes[0][0] == 1 and shapes[0][1] == (1, 1)
    assert [m for m, _ in shapes] == sorted(m for m, _ in shapes)


@pytest.mark.parametrize("k, B", [(2, 60), (3, 25), (4, 12)])
def test_shape_tuples_box_matches_brute_force(k, B):
    # a squarefree product of the b_j is exactly "each squarefree, pairwise
    # coprime"; the box caps every coordinate, X (when given) the radicand
    brute = []
    for b in itertools.product(range(1, B + 1), repeat=k - 1):
        if is_squarefree(math.prod(b)):
            brute.append((math.prod(bj ** (k + j) for j, bj in enumerate(b, 1)), b))
    brute.sort()
    assert shape_tuples(k, box=B) == brute
    X = brute[len(brute) // 2][0]
    assert shape_tuples(k, X, box=B) == [t for t in brute if t[0] <= X]
    assert shape_tuples(k, 10**40, box=B) == brute
    with pytest.raises(ValueError):
        shape_tuples(k)


def test_repr_validation():
    with pytest.raises(ValueError):
        KFullRepr(2, 1, (4,)).validate()  # non-squarefree b
    with pytest.raises(ValueError):
        KFullRepr(2, 0, (2,)).validate()
    with pytest.raises(ValueError):
        KFullRepr(3, 1, (2,)).validate()  # wrong tuple length


@given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=2, max_value=7))
@settings(deadline=None, max_examples=300)
def test_introot_floor_property(n, k):
    r = introot(n, k)
    assert r**k <= n < (r + 1) ** k


@pytest.mark.parametrize("q", [2, 3, 64, 129, 300, 1000])
def test_introot_past_the_float_range(q):
    # floor(2^(192 q) / p) is the radicand of the fixed-point root tables;
    # for q >= 129 it once left more than 1024 bits for float()
    xs = [(1 << 192 * q) // p for p in (2, 3, 101)]
    xs += [2**1100 - 1, 3**700, 10**400 + 7, 12345, 1]
    for x in xs:
        r = introot(x, q)
        assert r**q <= x < (r + 1) ** q, (q, x)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([(2,), (3,), (5,), (6,), (1,)]),
)
@settings(deadline=None, max_examples=200)
def test_canonical_repr_inverts_construction(k, a, b1):
    # spread the squarefree part over the first b slot only; still exercises
    # every exponent-residue branch through the a**k multiplier
    b = b1 + (1,) * (k - 2)
    rep = KFullRepr(k, a, b)
    v = rep.value()
    if v <= 2**63 - 1:
        got = canonical_repr(v, k)
        assert got == rep  # the representation map is a bijection
        assert is_kfull(v, k)
