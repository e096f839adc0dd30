"""Exact integer arithmetic for k-full numbers.

A positive integer n is k-full when p^k divides n for every prime p
dividing n.  Every k-full n factors uniquely as

    n = a^k * b_1^(k+1) * b_2^(k+2) * ... * b_(k-1)^(2k-1)

with b_1*...*b_(k-1) squarefree (so the b_j are squarefree and pairwise
coprime).  That bijection is what makes representation-driven enumeration
possible: walk the squarefree coprime tuples b and the cofactor a instead
of factoring every integer in the range.  shape_tuples is the one walker
over those tuples, capped by the radicand (M <= X); the k-full
enumeration, the sweep's shape lists, the oracle power sums and the head
of eval_F all read it.
LambdaElement names one shape by its tuple b and SubsetSpec a finite set of
them; both live here, with the integers they are made of, so that the exact
sweep and the CLI can name shapes without loading the series engine.

Supported factorization range is 1 <= n <= 2^63 - 1, enforced; the method
is deterministic trial division (primes up to 1000, early exit at p*p > n),
a deterministic Miller-Rabin test valid far beyond 64 bits, and Pollard's
rho with Brent's cycle finding for every composite cofactor left.  n = 1
counts as k-full by the vacuous prime condition; it is a perfect kth power,
so it never appears in a proper (non-kth-power) enumeration.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from math import gcd, inf, isqrt
from operator import itemgetter
from typing import NamedTuple

MAX_N = 2**63 - 1

# Deterministic Miller-Rabin bases for all n < 3.3 * 10^24 (covers 2^63).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def introot(n: int, k: int = 2) -> int:
    """Floor of the kth root of n >= 0, exact integer arithmetic."""
    if n < 0:
        raise ValueError("introot requires n >= 0")
    if k < 1:
        raise ValueError("introot requires k >= 1")
    if n == 0 or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # integer Newton: one step from any y > 0 lands at or above the root and
    # the iterates then fall to it.  A float start saves the slow first
    # steps; the shift, a multiple of k rounded up, leaves at most 900 bits
    # for float()
    sh = -(-max(0, n.bit_length() - 900) // k) * k
    y = int(float(n >> sh) ** (1 / k)) + 1 << sh // k
    y = ((k - 1) * y + n // y ** (k - 1)) // k
    while True:
        z = ((k - 1) * y + n // y ** (k - 1)) // k
        if z >= y:
            return y
        y = z


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime > n."""
    q = max(n + 1, 2)
    while not is_prime(q):
        q += 1
    return q


@lru_cache(maxsize=8)
def _prime_list(limit: int) -> tuple:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(2, limit + 1) if sieve[i])


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of odd composite n, deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(m, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                done += m
                g = gcd(q, n)
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1  # rare cycle degeneracy; retry with the next polynomial


def _factor_into(n: int, out: dict) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> tuple:
    """Sorted tuple of (prime, exponent) pairs; factorize(1) == ().

    Raises ValueError outside the supported range 1 <= n <= 2^63 - 1.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"factorize supports 1 <= n <= 2^63-1, got {n}")
    out = {}
    for p in _prime_list(1000):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            out[p] = e
    _factor_into(n, out)
    return tuple(sorted(out.items()))


def moebius(n: int) -> int:
    """Moebius function: 0 on squared factors, else (-1)^(number of primes)."""
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def is_squarefree(n: int) -> bool:
    return moebius(n) != 0


@lru_cache(maxsize=32)
def squarefree_sieve(limit: int) -> bytes:
    """Byte table t with t[n] == 1 iff n is squarefree, for 0 <= n <= limit."""
    t = bytearray([1]) * (limit + 1)
    if limit >= 0:
        t[0] = 0
    for i in range(2, isqrt(limit) + 1):
        step = i * i
        t[step::step] = bytearray(len(t[step::step]))
    return bytes(t)


def mobius_sieve(limit: int) -> list:
    """List mu with mu[n] = moebius(n) for 0 <= n <= limit."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    rem = list(range(limit + 1))  # cofactor left after dividing out small primes
    for p in _prime_list(max(2, isqrt(limit))):
        for j in range(p, limit + 1, p):
            mu[j] = -mu[j]
            while rem[j] % p == 0:
                rem[j] //= p
        pp = p * p
        for j in range(pp, limit + 1, pp):
            mu[j] = 0
    # a cofactor > 1 is a single prime > sqrt(limit) that still owes its sign
    for n in range(2, limit + 1):
        if mu[n] != 0 and rem[n] > 1:
            mu[n] = -mu[n]
    return mu


def is_kfull(n: int, k: int) -> bool:
    """True iff every prime exponent of n is >= k; vacuously true for n = 1."""
    if k < 2:
        raise ValueError("is_kfull requires k >= 2")
    if n < 1:
        raise ValueError("is_kfull requires n >= 1")
    return all(e >= k for _, e in factorize(n))


class KFullRepr(NamedTuple):
    """Canonical decomposition n = a^k * b_1^(k+1) * ... * b_(k-1)^(2k-1).

    The constructor trusts its arguments (enumeration creates millions of
    these); call validate() to check the squarefree-product invariant.
    """

    k: int
    a: int
    b: tuple

    def value(self) -> int:
        v = self.a**self.k
        for j, bj in enumerate(self.b, start=1):
            v *= bj ** (self.k + j)
        return v

    def b_product(self) -> int:
        p = 1
        for bj in self.b:
            p *= bj
        return p

    def validate(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.a < 1 or len(self.b) != self.k - 1 or any(x < 1 for x in self.b):
            raise ValueError("invalid representation fields")
        if not is_squarefree(self.b_product()):
            raise ValueError("b-product must be squarefree")


class _LambdaFields(NamedTuple):
    k: int
    b: tuple


class LambdaElement(_LambdaFields):
    """One shape, identified by its exact integer tuple b."""

    __slots__ = ()

    def __new__(cls, k: int, b: tuple):
        b = tuple(int(x) for x in b)
        if k < 2:
            raise ValueError("k must be >= 2")
        if len(b) != k - 1 or any(x < 1 for x in b):
            raise ValueError("b must be a tuple of k-1 positive integers")
        prod = 1
        for x in b:
            prod *= x
        if prod < 2 or not is_squarefree(prod):
            raise ValueError("b-product must be squarefree and >= 2")
        return super().__new__(cls, k, b)

    def radicand(self) -> int:
        """The exact integer lam^k."""
        m = 1
        for j, bj in enumerate(self.b, start=1):
            m *= bj ** (self.k + j)
        return m


class _SubsetFields(NamedTuple):
    k: int
    elements: tuple


class SubsetSpec(_SubsetFields):
    """A finite set of shapes, given by exact tuples."""

    __slots__ = ()

    def __new__(cls, k: int, elements: tuple):
        elems = tuple(
            e if isinstance(e, LambdaElement) else LambdaElement(k, tuple(e))
            for e in elements
        )
        for e in elems:
            if e.k != k:
                raise ValueError("mixed k in subset")
        keys = [e.b for e in elems]
        if len(set(keys)) != len(keys):
            raise ValueError("subset elements must be distinct")
        return super().__new__(cls, k, elems)

    def key_set(self) -> frozenset:
        return frozenset(e.b for e in self.elements)


def canonical_repr(n: int, k: int) -> KFullRepr:
    """The unique KFullRepr of a k-full integer n.

    A prime with exponent e >= k lands in b_r for r = e mod k when r != 0,
    donating the leftover p^((e - k - r)/k) to a; when k | e it contributes
    p^(e/k) to a outright.
    """
    if k < 2:
        raise ValueError("canonical_repr requires k >= 2")
    a = 1
    b = [1] * (k - 1)
    for p, e in factorize(n):
        if e < k:
            raise ValueError(f"{n} is not {k}-full (prime {p} has exponent {e})")
        r = e % k
        if r == 0:
            a *= p ** (e // k)
        else:
            b[r - 1] *= p
            a *= p ** ((e - (k + r)) // k)
    return KFullRepr(k, a, tuple(b))


def shape_tuples(k: int, X: int, cap: int | None = None) -> list:
    """All (M, b) with M = prod b_j^(k+j) <= X over squarefree pairwise-coprime
    tuples b, including the trivial all-ones tuple (M = 1).  Sorted by M.
    This is the one walker over the tuples: the enumeration, the shape
    lists and the oracle sums all read it.

    Given cap, a ValueError instead once there are more than cap shapes
    besides the trivial one, so the walk never holds more than cap + 1.
    Each squarefree b <= r = introot(X, k+1) is the shape b^(k+1), and at
    most sum_p r/p^2 < 0.4523 r of the n <= r are not squarefree, so there
    are at least 0.54 r - 1 non-trivial shapes: a cap that bound already
    passes is refused before the sieve is built."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if X < 1:
        return []
    top = introot(X, k + 1)  # every b_j <= top, since M >= b_j^(k+1)
    most = inf if cap is None else cap + 1
    if 54 * top // 100 - 1 >= most:
        raise ValueError(f"more than {cap} shapes: the count exceeds cap {cap}")
    sf = squarefree_sieve(top)
    coords = [b for b in range(2, top + 1) if sf[b]]  # the squarefree b > 1
    out = []

    def rec(j, m_so_far, prod_so_far, prefix):
        exp = k + j
        bmax = min(top, introot(X // m_so_far, exp))
        last = j == k - 1
        if last:
            out.append((m_so_far, prefix + (1,)))
        else:
            rec(j + 1, m_so_far, prod_so_far, prefix + (1,))
        for bj in coords:
            # past most, every open loop stops before it appends again
            if bj > bmax or len(out) > most:
                break
            if prod_so_far > 1 and gcd(bj, prod_so_far) > 1:
                continue
            if last:
                out.append((m_so_far * bj**exp, prefix + (bj,)))
            else:
                rec(j + 1, m_so_far * bj**exp, prod_so_far * bj, prefix + (bj,))

    rec(1, 1, 1, ())
    if len(out) > most:
        raise ValueError(f"more than {cap} shapes: the count exceeds cap {cap}")
    out.sort(key=itemgetter(0))  # distinct tuples have distinct M
    return out


def enumerate_kfull(k: int, X: int, proper_only: bool = True, cap: int | None = None):
    """Yield (value, KFullRepr) for k-full integers <= X in ascending order.

    proper_only=True skips perfect kth powers.  Generated from canonical
    representations (never by testing every integer): one arithmetic
    progression a = 1, 2, ... per shape tuple, lazily merged with a heap, so
    memory stays proportional to the number of shapes.  Given cap, a
    ValueError up front when there are more than cap non-trivial shapes,
    since each is a value M <= X of its own.
    """
    if k < 2:
        raise ValueError("enumerate_kfull requires k >= 2")
    if X < 1:
        raise ValueError("enumerate_kfull requires X >= 1")

    def per_shape(M, b):
        for a in range(1, introot(X // M, k) + 1):
            yield (a**k * M, KFullRepr(k, a, b))

    gens = [
        per_shape(M, b)
        for M, b in shape_tuples(k, X, cap=cap)
        if not (proper_only and M == 1)
    ]
    # distinct shapes never collide in value (unique representation), so the
    # merge key is strictly increasing across the stream
    return heapq.merge(*gens, key=lambda t: t[0])
