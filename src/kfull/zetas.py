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
prime_zeta_tail is memoized as well: the Euler route of shapes reaches the
same s = m t / k from many (m, t) pairs.  That is pure, since it reads s as
an exact rational and runs at its own mp.workdps(digits + 12), so its value
is a function of (s, p0, digits) alone, whatever the caller's precision;
3 and Fraction(3) hash alike and share one entry.  prime_zeta(s) is the
p0 = 1 case.

Powers from one table of prime roots.  Every exponent the engine reaches is
a rational a/q with a small denominator: m(k+j)/k and the cascade's
multiples n s.  For such s, _prime_roots holds u_p = p^(-1/q) for the
primes up to a limit, at W = working precision + _GUARD_BITS bits, each
taken 20 bits deeper and rounded once, so within eps_W = 2^(1-W) relative.
Then p^(-s) = u_p^a is an integer power, and a composite n takes
n^(-s) = p^(-s) (n/p)^(-s), p its least prime factor, in one product.  The
tables are built lazily and kept in a bounded lru_cache keyed on
(q, W, limit), so no value depends on which tables already exist.

The envelope counts these roundings.  u_p^a is within (a + 2) eps_W of
p^(-s): a from the root and one each for mpmath's integer power (truncated
internally far below eps_W, rounded once) and for second-order terms.  Each
sieve product adds one rounding, so n^(-s) is within Omega(n) (a + 3) eps_W,
Omega(n) <= log2 N counting prime factors with multiplicity.  The partial
sum over n < N is taken exactly and rounded once to working precision (mpf_sum
drops only terms below 2^(-2 prec) of the sum).  With a + 3 <= 2^_GUARD_BITS
every term is then within log2(N) eps, and the partial sum, the N^(-s) terms
and their three operations stay within (2 log2 N + 5) eps |sum|: inside the
two roundings per term, 2N eps |sum|, that the Euler-Maclaurin slop has
always carried, so the slop formula is unchanged.  Any other s (a float
such as 1.1 is 2476979795053773/2^51) keeps an exp/log power per term, bit
for bit as before.  The Euler-Maclaurin powers N^(1-s-2j) on the table route
follow from N^(-s) by division by N^2, and B_2j/(2j)! is cached per
precision.

The sieved log-zeta product prod_{p <= p0} (1 - p^(-x)) is one plain product
at W bits.  Since t = p^(-x) <= 1/2, the error of t is at most its own
share of 1 - t, so each factor and its product is within (a + 3) eps_W;
the radius counts those, one eps_W for second-order terms and eps/2 for the
final rounding.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import isqrt

from mpmath import bernfrac, mp, mpf
from mpmath.libmp import (fone, fzero, mpf_mul, mpf_pos, mpf_pow_int, mpf_sub, mpf_sum,
                          round_nearest)

from .arith import _prime_list, mobius_sieve, next_prime
from .bounded import ErrorBoundedReal

_MAX_EM_DOUBLINGS = 24
_GUARD_BITS = 12
_MAX_ROOT_DENOM = 64  # past it a table would serve few exponents
_MAX_ROOT_NUMER = (1 << _GUARD_BITS) - 3  # keeps the partial-sum count in the slop


@lru_cache(maxsize=None)
def _bern(n: int) -> Fraction:
    p, q = bernfrac(n)
    return Fraction(int(p), int(q))


@lru_cache(maxsize=1024)
def _em_coeff(j: int, prec: int) -> mpf:
    """B_2j/(2j)! at prec bits."""
    b = _bern(2 * j)
    with mp.workprec(prec):
        return mpf(b.numerator) / b.denominator / mp.factorial(2 * j)


def _span(n: int) -> int:
    # table limits are powers of two, so nearby needs share one table
    return max(256, 1 << (n - 1).bit_length())


@lru_cache(maxsize=64)
def _root_table(q: int, prec: int, limit: int) -> dict:
    with mp.workprec(prec + 20):
        return {p: mpf_pos((1 / mp.root(p, q))._mpf_, prec, round_nearest)
                for p in _prime_list(limit)}


def _prime_roots(q: int, prec: int, n: int) -> dict:
    """{p: p^(-1/q)} for the primes p <= n (and a few past it), as raw mpf
    of prec bits, each within 2^(1-prec) relative."""
    return _root_table(q, prec, _span(n))


@lru_cache(maxsize=8)
def _least_prime_factors(limit: int) -> list:
    lpf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if lpf[i] == i:
            for j in range(i * i, limit + 1, i):
                if lpf[j] == j:
                    lpf[j] = i
    return lpf


def _sieved_powers(a: int, q: int, N: int, prec: int) -> list:
    """n^(-a/q) for n = 0..N as raw mpf of prec bits (index 0 unused): one
    integer power of the root table per prime, one product per composite."""
    roots = _prime_roots(q, prec, N)
    lpf = _least_prime_factors(_span(N))
    out = [fzero, fone]
    for n in range(2, N + 1):
        p = lpf[n]
        out.append(mpf_pow_int(roots[p], a, prec, round_nearest) if p == n
                   else mpf_mul(out[p], out[n // p], prec, round_nearest))
    return out


def _ratio(s):
    """(a, q) with s = a/q when the root table serves s, else None."""
    x = _exact(s)
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
    with mp.workdps(digits + 12):
        sm = _to_mpf(s)
        if not sm > 1:
            raise ValueError(f"zeta requires s > 1, got {s}")
        target = mpf(10) ** (-digits)  # relative; value is > 1 so abs works too
        ratio = _ratio(s)
        n_terms = max(8, int(mp.dps * 1.2))
        for _ in range(_MAX_EM_DOUBLINGS):
            out = _zeta_em(sm, n_terms, target, ratio)
            if out is not None:
                return out
            n_terms *= 2
    raise ArithmeticError("Euler-Maclaurin failed to converge")  # unreachable


def _zeta_em(s: mpf, N: int, target: mpf, ratio=None):
    """One Euler-Maclaurin attempt; None when the terms stall above target.

    ratio = (a, q) with s = a/q takes the powers from the root table; None
    takes an exp/log power per term."""
    if ratio is None:
        acc = mpf(0)
        for n in range(1, N):
            acc += mpf(n) ** (-s)
        Npow = mpf(N) ** (-s)
        powers = ((mpf(N) ** (1 - s - 2 * j), mpf(N) ** (1 - s - 2 * j - 2))
                  for j in count(1))
    else:
        pw = _sieved_powers(*ratio, N, mp.prec + _GUARD_BITS)
        acc = mp.make_mpf(mpf_sum(pw[1:N], mp.prec, round_nearest))
        Npow = mp.make_mpf(mpf_pos(pw[N], mp.prec, round_nearest))
        powers = _em_powers(Npow, N)
    acc += Npow / 2 + Npow * N / (s - 1)
    # correction terms T_j = B_2j/(2j)! * N^(1-s-2j) * prod_{i=0}^{2j-2}(s+i)
    rise = s  # running product (s)(s+1)...(s+2j-2)
    prev = mp.inf
    coeff = _em_coeff(1, mp.prec)
    for j, (pw_j, pw_next) in enumerate(powers, start=1):
        term = coeff * rise * pw_j
        at = abs(term)
        if at >= prev:
            return None  # asymptotic series turned; need larger N
        acc += term
        # remainder after the 2j-term is bounded by the first omitted term
        coeff_next = _em_coeff(j + 1, mp.prec)
        rise_next = rise * (s + 2 * j - 1) * (s + 2 * j)
        bound = abs(coeff_next) * rise_next * pw_next
        if bound < target * acc:
            # ~2 roundings per partial-sum term (power, add) plus the
            # correction-term arithmetic
            slop = abs(acc) * mp.eps * (2 * N + 8 * j + 16)
            return ErrorBoundedReal(acc, bound + slop)
        prev = at
        rise = rise_next
        coeff = coeff_next


def _em_powers(Npow: mpf, N: int):
    """(N^(1-s-2j), N^(-1-s-2j)) for j = 1, 2, ... from Npow = N^(-s)."""
    pw = Npow / N
    while True:
        nxt = pw / (N * N)
        yield pw, nxt
        pw = nxt


def _exact(s) -> Fraction:
    """s as an exact rational; the cascade's cache is keyed on it."""
    if isinstance(s, (int, float, Fraction)):
        return Fraction(s)
    man, exp = mpf(s).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _sieved_bound(x: Fraction, q: int) -> mpf:
    """Upper bound on Lambda(x) = sum_{p >= q} -log(1 - p^(-x)), x > 1.

    Lambda(x) = sum over prime powers n = p^j >= q of n^(-x)/j, which is at
    most sum_{n >= q} n^(-x) <= q^(-x) + q^(1-x)/(x-1).  The factor 1.000001
    covers the rounding of this evaluation.
    """
    return _prime_power(q, x) * (1 + q / (_to_mpf(x) - 1)) * mpf("1.000001")


def _prime_power(p: int, x: Fraction) -> mpf:
    """p^(-x) for a prime p at the working precision, from the root table
    when it serves x."""
    ratio = _ratio(x)
    if ratio is None:
        return mpf(p) ** (-_to_mpf(x))
    a, q = ratio
    root = _prime_roots(q, mp.prec + _GUARD_BITS, p)[p]
    return mp.make_mpf(mpf_pow_int(root, a, mp.prec, round_nearest))


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
        bound = _sieved_bound(x, next_prime(p0))
        if bound < mpf(10) ** (-digits):
            return ErrorBoundedReal(bound / 2, bound / 2)
        # one log of zeta(x) * prod_{p <= p0} (1 - p^(-x)), which is 1 + Lambda
        acc = zeta(x, digits + 2)
        primes = primes_upto(p0)
        ratio = _ratio(x)
        if ratio is None:
            xm = _to_mpf(x)
            for p in primes:
                t = mpf(p) ** (-xm)
                acc = acc * ErrorBoundedReal(mp.fsub(1, t, exact=True), t * mp.eps * 4)
        elif primes:
            acc = acc * _euler_factor(*ratio, primes)
        return acc.log()


def _euler_factor(a: int, q: int, primes: tuple) -> ErrorBoundedReal:
    """prod_p (1 - p^(-a/q)) over primes from the root table, with the counted
    radius of the module docstring."""
    W = mp.prec + _GUARD_BITS
    roots = _prime_roots(q, W, primes[-1])
    prod = fone
    for p in primes:
        t = mpf_pow_int(roots[p], a, W, round_nearest)
        prod = mpf_mul(prod, mpf_sub(fone, t, W, round_nearest), W, round_nearest)
    v = mp.make_mpf(mpf_pos(prod, mp.prec, round_nearest))
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
    s = _exact(s)
    if not s > 1:
        raise ValueError(f"prime zeta requires s > 1, got {s}")
    q = next_prime(p0)
    with mp.workdps(digits + 12):
        target = mpf(10) ** (-digits - 2)
        n_max = 1
        while True:
            rest = _sieved_bound((n_max + 1) * s, q) / ((n_max + 1) * (1 - _prime_power(q, s)))
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
