"""Riemann zeta and prime zeta evaluation with rigorous remainders.

zeta(s) takes every real s > 1 as its exact rational a/q (a float or an mpf
is dyadic) and uses Euler-Maclaurin summation: the remainder after the
Bernoulli term of order 2J is bounded in absolute value by the first
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
Lambda is memoized on the exact rational x, which many (s, n) pairs share,
and which the Euler route of shapes reads directly, as Lambda(n m / k) for
many (n, m).  prime_zeta_tail is memoized as well.  That is pure, since it
reads s as an exact rational and runs at its own mp.workdps(digits + 12),
so its value is a function of (s, p0, digits) alone, whatever the caller's
precision; 3 and Fraction(3) hash alike and share one entry.
prime_zeta(s) is the p0 = 1 case.

Fixed-point powers.  The inner loops run on Python ints at F fraction bits,
F = prec + _GUARD_BITS + 32 rounded up to a multiple of 64 (_fraction_bits),
so nearby precisions share one F.  _prime_powers decides where each p^(-s)
comes from.  Every exponent the engine reaches is a rational a/q with a
small denominator (m(k+j)/k and the cascade's multiples n s); for those
(_ratio) p^(-a/q) is entry a of the stepped table of (q, F) (_Steps, one
per (q, F) through _steps): entry a of prime p is entry a - 1 times the
root r_p = floor(p^(-1/q) 2^F), floored, so a run of exponents read upward
costs one product per step, not a binary powering per read.  The table
keeps one cursor per prime (and lane) and steps forward from it, or from
entry 0 when asked for a smaller a; each entry is a function of
(p, a, q, F) alone, so no value depends on the order of reads or on which
tables exist.  Its fixed view (F fraction bits) serves zeta's sieve and
the sieved Euler factor of Lambda(s), which reads the entries zeta(s)'s
sieve stepped to whenever the two run at one F; its scaled view (F
significant bits) serves _prime_power and shapes' exact product and Witt
cut.  Any other s takes one mpf power per prime at F + 32 bits, floored to
F bits, trusted to within 2^28 ulp.

The envelope counts every floor in units of 2^-F.  A product of two values
in [0, 1], taken as floor(x y / 2^F), errs by at most e(x) + e(y) + 1 units,
so a fixed entry a, a < 2^12, errs by less than 2a: each step adds less
than 1 for the root and 1 for its own floor, as entry a - 1 is at most 1.
A scaled entry loses less than p^(1/q) 2^-F relative to the root and
2^(1-F) to the cut per step, so entry a is within a (p^(1/q) + 2) 2^(1-F)
relative, and errs low.  An mpf power errs by less than 2 units: 1
from the floor, and far less from the power and from rounding s to F + 32
bits, which moves p^(-s) by at most p^(-s) s log(p) 2^(-F-32) < 2^(-F-32).
Write 2a for either bound (a = 1 for an mpf power).  A composite n takes
n^(-s) = p^(-s) (n/p)^(-s), p its least prime factor, in one product, so it
errs by less than Omega(n) (2a + 2) < 2^18 units (N < 2^32).

The kernel _zeta_table sums the partial sum over n < N, N^(-s)/2,
N^(-s) N/(s - 1) and the corrections T_j = c_j N^(-s) on one integer sigma
and rounds it once to working precision.  The exact rational
c_j = B_2j/(2j)! s (s+1) ... (s+2j-2) N^(1-2j) gives each T_j once, as the
next bound and then as the next term, with a floor within |c_j| e(N^(-s)) + 1.
sigma >= 1 and sigma > zeta(s)/2 > 1/(2(s - 1)), so the first three parts
err by less than 2^18 N + 2^18 + 2^19 N sigma + 1 units.  Let X be the
fixed-point N^(-s).  If X = 0, every correction and the bound are 0, and
the whole tail sum_{n >= N} n^(-s) <= N^(-s) (1 + N/(s - 1)) is below
2^18 (1 + 2N sigma) units.  If X >= 1, N^(-s) > 2^(-F-1), so s <= (F + 1)/3
and c_1 = s/(12N) <= (F + 1)/288 < 2^19 (F < 2^27); the corrections are
summed only while |c_j| falls, and the kernel returns only when the first
omitted |c_(J+1)| < 2^19, so the J + 1 floors err by less than
(J + 1)(2^37 + 1) units.  Either way the count
is below (2N + 8J + 16) 2^37 sigma units, which is (F >= prec + 44) below
2^-8 of the slop sigma eps (2N + 8J + 16) that the Euler-Maclaurin radius
has always carried (eps = 2^(1-prec)); the slop also pays for the rounding.

The sieved log-zeta product prod_{p <= p0} (1 - p^(-x)) is one fixed-point
product too: n factors, each within 2a units, take it within n (2a + 2)
units.  Its radius keeps the old count of n (a + 3) + 1 units of
eps_W = 2^(1-W), W = prec + _GUARD_BITS, relative, plus eps/2 for the
rounding to working precision.  One eps_W is 2^(F-W+1) >= 2^33 units, and
the product is at least prod_{p <= p0} (1 - 1/p) >= 1/p0, so the fixed-point
error sits inside that radius for any cutoff p0 < 2^32.  _prime_power keeps
relative precision for tiny values: the scaled view keeps F bits through the
steps, so p^(-x) is within a (p^(1/q) + 2) 2^(1-F) relative, far below
eps; an x the table does not serve takes mpf's power at working precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import factorial, isqrt

from mpmath import bernfrac, mp, mpf
from mpmath.libmp import (from_int, from_man_exp, from_rational, mpf_neg, mpf_pow,
                          round_ceiling, round_floor, round_nearest, to_fixed)

from .arith import _prime_list, introot, mobius_sieve, next_prime
from .bounded import ErrorBoundedReal, _rational

_MAX_EM_DOUBLINGS = 24
_GUARD_BITS = 12
_MAX_ROOT_DENOM = 64  # past it a table would serve few exponents
_MAX_ROOT_NUMER = (1 << _GUARD_BITS) - 3  # keeps the fixed-point counts small


@lru_cache(maxsize=None)
def _bern(n: int) -> Fraction:
    p, q = bernfrac(n)
    return Fraction(int(p), int(q))


@lru_cache(maxsize=None)
def _em_fraction(j: int) -> tuple:
    """B_2j/(2j)! exactly, as (numerator, denominator > 0)."""
    b = _bern(2 * j) / factorial(2 * j)
    return b.numerator, b.denominator


def _fraction_bits(prec: int) -> int:
    """F, the fraction bits of the fixed-point layer at working precision prec."""
    return -(-(prec + _GUARD_BITS + 32) // 64) * 64


def _span(n: int) -> int:
    # sieve limits are powers of two, so nearby needs share one sieve
    return max(256, 1 << (n - 1).bit_length())


class _Steps:
    """The stepped powers of r_p = floor(p^(-1/q) 2^F) for one (q, F).

    Entry a >= 1 of prime p is entry a - 1 times r_p, floored, from
    entry 0 = 1, in two views: fixed(p, a) is an int at F fraction bits and
    scaled(p, a) a pair (man, e), man 2^-e, with man cut to F significant
    bits after each product.  Each entry is a function of (p, a, q, F)
    alone.  The table keeps one cursor per prime, view and lane: the last
    entry read there.  A read steps forward from it, or from entry 0 when a
    is below it, so memory is O(primes), and reads that climb cost one
    product per step.  A caller that climbs several runs of exponents at
    once (the m(k+j) of the Euler route, each growing by k+j with m) gives
    each run its own lane, so no run restarts another."""

    def __init__(self, q: int, F: int):
        self.q, self.F = q, F
        self._roots, self._fixed, self._scaled = {}, {}, {}

    def root(self, p: int) -> int:
        r = self._roots.get(p)
        if r is None:
            r = self._roots[p] = introot((1 << (self.q * self.F)) // p, self.q)
        return r

    def fixed(self, p: int, a: int) -> int:
        b, v = self._fixed.get(p) or (0, 1 << self.F)
        if b != a:
            if b > a:
                b, v = 0, 1 << self.F
            r, F = self.root(p), self.F
            for _ in range(a - b):
                v = v * r >> F
            self._fixed[p] = a, v
        return v

    def scaled(self, p: int, a: int, lane: int = 0) -> tuple:
        b, man, e = self._scaled.get((p, lane)) or (0, 1, 0)
        if b != a:
            if b > a:
                b, man, e = 0, 1, 0
            r, F = self.root(p), self.F
            for _ in range(a - b):
                man *= r
                x = man.bit_length() - F
                if x > 0:
                    man >>= x
                    e += F - x
                else:
                    e += F
            self._scaled[p, lane] = a, man, e
        return man, e


@lru_cache(maxsize=64)
def _steps(q: int, F: int) -> _Steps:
    return _Steps(q, F)


@lru_cache(maxsize=8)
def _least_prime_factors(limit: int) -> list:
    lpf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if lpf[i] == i:
            for j in range(i * i, limit + 1, i):
                if lpf[j] == j:
                    lpf[j] = i
    return lpf


def _prime_powers(x: Fraction, F: int) -> tuple:
    """(pw, a): pw(p) is p^(-x) at F fraction bits for a prime p, within 2a
    units of 2^-F (see the module docstring).  Entry a of the stepped table
    (q, F) when it serves x = a/q; otherwise one mpf power at F + 32 bits,
    floored, and a = 1."""
    ratio = _ratio(x)
    if ratio is not None:
        a, q = ratio
        fixed = _steps(q, F).fixed
        return (lambda p: fixed(p, a)), a
    neg = mpf_neg(from_rational(x.numerator, x.denominator, F + 32, round_nearest))
    return (lambda p: to_fixed(mpf_pow(from_int(p), neg, F + 32, round_floor), F)), 1


def _powers_upto(x: Fraction, N: int, F: int) -> list:
    """n^(-x) for n = 0..N at F fraction bits (index 0 unused): one power
    from _prime_powers per prime, one floored product per composite."""
    pw = _prime_powers(x, F)[0]
    lpf = _least_prime_factors(_span(N))
    out = [0, 1 << F]
    for n in range(2, N + 1):
        p = lpf[n]
        out.append(pw(p) if p == n else out[p] * out[n // p] >> F)
    return out


def _ratio(s):
    """(a, q) with s = a/q when a stepped table serves s, else None."""
    x = _rational(s)
    if x.denominator <= _MAX_ROOT_DENOM and x.numerator <= _MAX_ROOT_NUMER:
        return x.numerator, x.denominator
    return None


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
    x = _rational(s)
    if not x > 1:
        raise ValueError(f"zeta requires s > 1, got {s}")
    with mp.workdps(digits + 12):
        n_terms = max(8, int(mp.dps * 1.2))
        for _ in range(_MAX_EM_DOUBLINGS):
            out = _zeta_table(x, n_terms, digits)
            if out is not None:
                return out
            n_terms *= 2
    raise ArithmeticError("Euler-Maclaurin failed to converge")  # unreachable


def _zeta_table(s: Fraction, N: int, digits: int):
    """One Euler-Maclaurin attempt for s = a/q on F-bit fixed point (see the
    module docstring); None when the corrections stop falling before the
    first omitted one is below 10^(-digits) of the sum."""
    a, q = s.numerator, s.denominator
    prec = mp.prec
    F = _fraction_bits(prec)
    pw = _powers_upto(s, N, F)
    X = pw[N]  # N^(-s)
    acc = sum(pw[1:N]) + (X >> 1) + X * N * q // (a - q)
    # T_j = c_j X, c_j = B_2j/(2j)! * rise_j / N^(2j-1) = cn / cd, with the
    # exact rise_j = s (s+1) ... (s+2j-2) = rn / rd
    rn, rd, Nodd = a, q, N
    bn, bd = _em_fraction(1)
    cn, cd = bn * rn, bd * rd * Nodd
    term = cn * X // cd
    scale = 10 ** digits
    for j in count(1):
        acc += term
        # the first omitted term bounds the remainder after the 2j-term
        rn *= (a + (2 * j - 1) * q) * (a + 2 * j * q)
        rd *= q * q
        Nodd *= N * N
        bn, bd = _em_fraction(j + 1)
        nn, nd = bn * rn, bd * rd * Nodd
        nterm = nn * X // nd
        bound = abs(nterm)
        # with X = 0 the tail needs no corrections; else the count needs
        # |c_(J+1)| < 2^19 (module docstring)
        if bound * scale < acc and (not X or abs(nn) < nd << 19):
            v = mp.make_mpf(from_man_exp(acc, -F, prec, round_nearest))
            slop = abs(v) * mp.eps * (2 * N + 8 * j + 16)
            return ErrorBoundedReal(v, mp.make_mpf(from_man_exp(bound, -F, prec, round_ceiling))
                                    + slop)
        if abs(nn) * cd >= abs(cn) * nd:
            return None  # asymptotic series turned; need larger N
        cn, cd, term = nn, nd, nterm


def _sieved_bound(x: Fraction, q: int) -> mpf:
    """Upper bound on Lambda(x) = sum_{p >= q} -log(1 - p^(-x)), x > 1.

    Lambda(x) = sum over prime powers n = p^j >= q of n^(-x)/j, which is at
    most sum_{n >= q} n^(-x) <= q^(-x) + q^(1-x)/(x-1).  The factor 1.000001
    covers the rounding of this evaluation.
    """
    return _prime_power(q, x) * (1 + q / (_to_mpf(x) - 1)) * mpf("1.000001")


def _prime_power(p: int, x: Fraction) -> mpf:
    """p^(-x) for a prime p at the working precision, from the scaled view
    of the stepped table when it serves x."""
    ratio = _ratio(x)
    if ratio is None:
        return mpf(p) ** (-_to_mpf(x))
    a, q = ratio
    man, e = _steps(q, _fraction_bits(mp.prec)).scaled(p, a)
    return mp.make_mpf(from_man_exp(man, -e, mp.prec, round_nearest))


@lru_cache(maxsize=4096)
def _sieved_log_zeta(x: Fraction, p0: int, digits: int) -> ErrorBoundedReal:
    """Lambda(x) = log zeta(x) + sum_{p <= p0} log(1 - p^(-x)), the log of the
    Euler product over primes p > p0, to absolute radius ~10^(-digits).

    0 <= Lambda(x) <= _sieved_bound(x, q), q the first prime past p0; once
    that bound is below 10^(-digits) the interval [0, bound] is returned and
    no zeta value is computed.  Keyed on the exact x, which the cascade
    reaches from many (s, n) pairs and the Euler route from many (n, m).
    """
    with mp.workdps(digits + 12):
        bound = _sieved_bound(x, next_prime(p0))
        if bound < mpf(10) ** (-digits):
            return ErrorBoundedReal(bound / 2, bound / 2)
        # one log of zeta(x) * prod_{p <= p0} (1 - p^(-x)), which is 1 + Lambda
        acc = zeta(x, digits + 2)
        primes = primes_upto(p0)
        if primes:
            acc = acc * _euler_factor(x, primes)
        return acc.log()


def _euler_factor(x: Fraction, primes: tuple) -> ErrorBoundedReal:
    """prod_p (1 - p^(-x)) over primes, one fixed-point product of the
    _prime_powers, with the radius of the module docstring."""
    prec = mp.prec
    W = prec + _GUARD_BITS
    F = _fraction_bits(prec)
    pw, a = _prime_powers(x, F)
    one = 1 << F
    prod = one
    for p in primes:
        prod = prod * (one - pw(p)) >> F
    v = mp.make_mpf(from_man_exp(prod, -F, prec, round_nearest))
    units = len(primes) * (a + 3) + 1 + (1 << (_GUARD_BITS - 1))
    return ErrorBoundedReal(v, mp.fmul(v, mp.ldexp(units, 1 - W), rounding="u"))


@lru_cache(maxsize=4096)
def prime_zeta_tail(s, p0: int, digits: int = 15) -> ErrorBoundedReal:
    """Sum of p^(-s) over primes p > p0, for real s > 1.

    Cohen's sieved cascade  sum_{n>=1} mu(n)/n * Lambda(n s),  truncated at
    the first N whose remainder bound  sum_{n>N} bound(n s)/n  is below
    10^(-digits-2).  With q the first prime past p0 that remainder is at
    most  q^(-(N+1)s) * (1 + q/((N+1)s - 1)) / ((N+1) * (1 - q^(-s))).
    Memoized like zeta.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    s = _rational(s)
    if not s > 1:
        raise ValueError(f"prime zeta requires s > 1, got {s}")
    q = next_prime(p0)
    with mp.workdps(digits + 12):
        target = mpf(10) ** (-digits - 2)
        gap = 1 - _prime_power(q, s)
        n_max = 1
        while True:
            rest = _sieved_bound((n_max + 1) * s, q) / ((n_max + 1) * gap)
            if rest < target:
                break
            n_max += 1
        mu = mobius_sieve(n_max)
        acc = ErrorBoundedReal.exact(0)
        for n in range(1, n_max + 1):
            if mu[n]:
                acc = acc + _sieved_log_zeta(n * s, p0, digits + 4) * Fraction(mu[n], n)
        return acc.widened(rest)


@lru_cache(maxsize=4096)
def prime_zeta(s, digits: int = 15) -> ErrorBoundedReal:
    """Sum of p^(-s) over all primes, for real s > 1: the p0 = 1 case of
    prime_zeta_tail.  Memoized like zeta."""
    return prime_zeta_tail(s, 1, digits)


def primes_upto(limit: int) -> tuple:
    return _prime_list(limit) if limit >= 2 else ()
