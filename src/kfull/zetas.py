"""Riemann zeta and prime zeta evaluation with rigorous remainders.

zeta(s) uses Euler-Maclaurin summation: for real s > 1 the remainder after
the Bernoulli term of order 2J is bounded in absolute value by the first
omitted term, which becomes the reported radius.  N and J adapt until the
radius meets the requested precision.

Prime zeta tails P_{>p0}(s) = sum over primes p > p0 of p^(-s) come from
Cohen's sieved Moebius cascade (H. Cohen, "High precision computation of
Hardy-Littlewood constants", 1998):

    P_{>p0}(s) = sum_{n>=1} mu(n)/n * Lambda(n s),
    Lambda(x)  = log zeta(x) + sum_{p <= p0} log(1 - p^(-x)),

where 0 <= Lambda(x) <= q^(-x) * (1 + q/(x-1)) and q is the first prime
past p0.  That bound truncates the cascade and replaces every Lambda value
it already certifies, so zeta is only evaluated where its digits are used.
Lambda is memoized on the exact rational x, which many (s, n) pairs share.
prime_zeta(s) is the p0 = 1 case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import bernfrac, mp, mpf

from .arith import _prime_list, mobius_sieve, next_prime
from .bounded import ErrorBoundedReal

_MAX_EM_DOUBLINGS = 24


@lru_cache(maxsize=None)
def _bern(n: int) -> Fraction:
    p, q = bernfrac(n)
    return Fraction(int(p), int(q))


def _to_mpf(s) -> mpf:
    if isinstance(s, Fraction):
        return mpf(s.numerator) / s.denominator
    return mpf(s)


@lru_cache(maxsize=4096)
def zeta(s, digits: int = 15) -> ErrorBoundedReal:
    """Riemann zeta for real s > 1 with radius <= 10^(-digits) * value.

    Memoized; results are pure functions of (s, digits), so cache hits can
    never change a returned value.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + 12):
        sm = _to_mpf(s)
        if not sm > 1:
            raise ValueError(f"zeta requires s > 1, got {s}")
        target = mpf(10) ** (-digits)  # relative; value is > 1 so abs works too
        n_terms = max(8, int(mp.dps * 1.2))
        for _ in range(_MAX_EM_DOUBLINGS):
            out = _zeta_em(sm, n_terms, target)
            if out is not None:
                return out
            n_terms *= 2
    raise ArithmeticError("Euler-Maclaurin failed to converge")  # unreachable


def _zeta_em(s: mpf, N: int, target: mpf):
    """One Euler-Maclaurin attempt; None when the terms stall above target."""
    acc = mpf(0)
    for n in range(1, N):
        acc += mpf(n) ** (-s)
    Npow = mpf(N) ** (-s)
    acc += Npow / 2 + Npow * N / (s - 1)
    # correction terms T_j = B_2j/(2j)! * N^(1-s-2j) * prod_{i=0}^{2j-2}(s+i)
    rise = s  # running product (s)(s+1)...(s+2j-2)
    prev = mp.inf
    j = 1
    while True:
        b = _bern(2 * j)
        coeff = mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
        term = coeff * rise * (mpf(N) ** (1 - s - 2 * j))
        at = abs(term)
        if at >= prev:
            return None  # asymptotic series turned; need larger N
        acc += term
        # remainder after the 2j-term is bounded by the first omitted term
        b2 = _bern(2 * j + 2)
        rise_next = rise * (s + 2 * j - 1) * (s + 2 * j)
        bound = (
            abs(mpf(b2.numerator)) / b2.denominator / mp.factorial(2 * j + 2)
            * rise_next
            * (mpf(N) ** (1 - s - 2 * j - 2))
        )
        if bound < target * acc:
            # ~2 roundings per partial-sum term (power, add) plus the
            # correction-term arithmetic
            slop = abs(acc) * mp.eps * (2 * N + 8 * j + 16)
            return ErrorBoundedReal(acc, bound + slop)
        prev = at
        rise = rise_next
        j += 1


def _exact(s) -> Fraction:
    """s as an exact rational; the cascade's cache is keyed on it."""
    if isinstance(s, (int, float, Fraction)):
        return Fraction(s)
    man, exp = mpf(s).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _sieved_bound(x: mpf, q: int) -> mpf:
    """Upper bound on Lambda(x) = sum_{p >= q} -log(1 - p^(-x)), x > 1.

    Lambda(x) = sum over prime powers n = p^j >= q of n^(-x)/j, which is at
    most sum_{n >= q} n^(-x) <= q^(-x) + q^(1-x)/(x-1).  The factor 1.000001
    covers the rounding of this evaluation.
    """
    return mpf(q) ** (-x) * (1 + q / (x - 1)) * mpf("1.000001")


@lru_cache(maxsize=4096)
def _sieved_log_zeta(x: Fraction, p0: int, digits: int) -> ErrorBoundedReal:
    """Lambda(x) = log zeta(x) + sum_{p <= p0} log(1 - p^(-x)), the log of the
    Euler product over primes p > p0, to absolute radius ~10^(-digits).

    0 <= Lambda(x) <= _sieved_bound(x, q), q the first prime past p0; once
    that bound is below 10^(-digits) the interval [0, bound] is returned and
    no zeta value is computed.  Keyed on the exact x, which the cascade
    reaches from many (s, n) pairs.
    """
    with mp.workdps(digits + 12):
        xm = _to_mpf(x)
        bound = _sieved_bound(xm, next_prime(p0))
        if bound < mpf(10) ** (-digits):
            return ErrorBoundedReal(bound / 2, bound / 2)
        # one log of zeta(x) * prod_{p <= p0} (1 - p^(-x)), which is 1 + Lambda
        acc = zeta(x, digits + 2)
        for p in primes_upto(p0):
            t = mpf(p) ** (-xm)
            acc = acc * ErrorBoundedReal(mp.fsub(1, t, exact=True), t * mp.eps * 4)
        return acc.log()


def prime_zeta_tail(s, p0: int, digits: int = 15) -> ErrorBoundedReal:
    """Sum of p^(-s) over primes p > p0, for real s > 1.

    Cohen's sieved cascade  sum_{n>=1} mu(n)/n * Lambda(n s),  truncated at
    the first N whose remainder bound  sum_{n>N} bound(n s)/n  is below
    10^(-digits-2).  With q the first prime past p0 that remainder is at
    most  q^(-(N+1)s) * (1 + q/((N+1)s - 1)) / ((N+1) * (1 - q^(-s))).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    s = _exact(s)
    if not s > 1:
        raise ValueError(f"prime zeta requires s > 1, got {s}")
    q = next_prime(p0)
    with mp.workdps(digits + 12):
        sm = _to_mpf(s)
        target = mpf(10) ** (-digits - 2)
        n_max = 1
        while True:
            rest = _sieved_bound((n_max + 1) * sm, q) / ((n_max + 1) * (1 - mpf(q) ** (-sm)))
            if rest < target:
                break
            n_max += 1
        mu = mobius_sieve(n_max)
        acc = ErrorBoundedReal.exact(0)
        for n in range(1, n_max + 1):
            if mu[n]:
                acc = acc + _sieved_log_zeta(n * s, p0, digits + 4) * (mpf(mu[n]) / n)
        return acc.widened(rest)


@lru_cache(maxsize=4096)
def prime_zeta(s, digits: int = 15) -> ErrorBoundedReal:
    """Sum of p^(-s) over all primes, for real s > 1: the p0 = 1 case of
    prime_zeta_tail.  Memoized like zeta."""
    return prime_zeta_tail(s, 1, digits)


def primes_upto(limit: int) -> tuple:
    return _prime_list(limit) if limit >= 2 else ()
