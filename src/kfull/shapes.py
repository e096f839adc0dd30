"""Root shapes of proper k-full integers and their Dirichlet power sums.

Every proper k-full integer is a^k * lam^k for a unique integer a >= 1 and
a unique real lam = (b_1^(k+1) * ... * b_(k-1)^(2k-1))^(1/k) > 2 drawn from
the squarefree pairwise-coprime tuples b with product >= 2.  The element is
identified by its integer tuple b (never by a floating approximation); the
integer radicand lam^k orders the set, so enumeration and sorting are exact.

The power sums  P_k(m) = sum over shapes of lam^(-m)  are evaluated by two
independent routes:

* power_sum_direct: truncated summation over a coordinate box b_j <= B,
  with the omitted mass bounded by integral comparison (tail_bound).
  k = 2 sums a squarefree sieve, k = 3 uses the gcd-Moebius identity, and
  k >= 4 sums over the box tuples of arith.shape_tuples (the one tuple
  walker).  For k >= 3 the box is walked once per (k, B) and cached
  (_box), and each m reads it in numpy passes: at k = 3 the multiples of
  every squarefree d, summed per d with one np.add.reduceat; at k >= 4 the
  tuples as index columns, each term a product of per-(m, j) power tables.
  Converges like B^(-m/k) at best, so it serves as the oracle route.

* power_sum_euler: since each prime divides at most one b_j, the sum over
  all shape tuples factors over primes,

      1 + P_k(m) = prod_p (1 + sum_{j=1..k-1} p^(-m(k+j)/k)),

  evaluated with small primes multiplied in exactly and the remaining
  primes handled through the formal logarithm of the factor polynomial,
  whose powers reduce to prime-zeta tails (zetas.prime_zeta_tail, the
  sieved log-zeta cascade).  Every truncation depth comes from its proven
  bound: the formal log stops at the smallest order whose tail bound is
  below target, which for large m is order k, i.e. no prime-zeta tail at
  all; and a small prime whose factor sum is below the working floor is
  moved into the radius by 0 <= log1p(x) <= x.  This is the precision route.
  One pass per P_k(m): the tail of order t gets digits + max(6, ceil(log10
  |c_t|)) digits, so no formal-log coefficient c_t swamps the radius, and
  the result has radius <= 10^(-digits) or raises ArithmeticError naming
  the cause (the cut reached _T_CAP, or the radius it reached).
  The exact-product factors p^(-m(k+j)/k) = u_p^(m(k+j)) are integer
  powers of the roots u_p = p^(-1/k) from zetas' table of prime roots, as is
  the first omitted prime's y = q^(-m/k), not exp/log pairs.  The exact
  primes accumulate as one raw mpf S = prod_p (1 + s_p) - 1 at the table's
  W bits, each factor sum s_p summed exactly and rounded once, through the
  update S <- S + s_p (1 + S).  All its terms are positive, so S keeps its
  relative precision when every factor is 1 + tiny, with one counted
  relative radius: n (a + 4) units of 2^(1-W) after n primes, a = m(2k-1),
  plus the rounding to working precision (see _exact_product).  It enters
  the log through one interval log1p per m.  The exact formal-log
  coefficients are built only as deep as the cut reads them (_log_coeffs).

numpy serves only the box sums of k >= 3 and is imported there, so the
Euler route, and every command that uses only it, runs without loading
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import fsum

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_lt, mpf_mul, mpf_pos, mpf_pow_int, mpf_sum, round_nearest

from .arith import is_squarefree, mobius_sieve, next_prime, shape_tuples, squarefree_sieve
from .bounded import ErrorBoundedReal
from .zetas import _GUARD_BITS, _prime_power, _prime_roots, prime_zeta_tail, primes_upto, zeta

DEFAULT_PRIME_CUTOFF = 100
DEFAULT_ELEMENT_CAP = 2_000_000
_DIRECT_WORK_CAP = 50_000_000


@dataclass(frozen=True)
class LambdaElement:
    """One shape, identified by its exact integer tuple b."""

    k: int
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if len(self.b) != self.k - 1 or any(x < 1 for x in self.b):
            raise ValueError("b must be a tuple of k-1 positive integers")
        prod = 1
        for x in self.b:
            prod *= x
        if prod < 2 or not is_squarefree(prod):
            raise ValueError("b-product must be squarefree and >= 2")

    def radicand(self) -> int:
        """The exact integer lam^k."""
        m = 1
        for j, bj in enumerate(self.b, start=1):
            m *= bj ** (self.k + j)
        return m


def lambda_min_radicand(k: int) -> int:
    """Radicand of the smallest shape, b = (2, 1, ..., 1), i.e. 2^(k+1)."""
    return 2 ** (k + 1)


def lambda_value(e: LambdaElement, digits: int = 15) -> ErrorBoundedReal:
    """lam as an enclosure with relative radius <= 10^(-digits)."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with mp.workdps(digits + 8):
        v = mp.root(mpf(e.radicand()), e.k)
        return ErrorBoundedReal(v, v * mp.eps * 8)


def enumerate_lambda(k: int, bound, cap: int = DEFAULT_ELEMENT_CAP) -> list:
    """All shapes with lam <= bound, ascending.  Exact boundary comparison:
    lam <= bound iff radicand <= bound^k, taken over the rationals."""
    if k < 2:
        raise ValueError("k must be >= 2")
    limit = Fraction(bound) ** k
    if limit < lambda_min_radicand(k):
        return []
    X = int(limit)  # floor; radicands are integers so the comparison is exact
    shapes = [(M, b) for M, b in shape_tuples(k, X) if M >= 2]
    if len(shapes) > cap:
        raise ValueError(f"element count {len(shapes)} exceeds cap {cap}")
    return [LambdaElement(k, b) for M, b in shapes]


@dataclass(frozen=True)
class PowerSums:
    """P_k(1), ..., P_k(m_max) as enclosures; values is a tuple, or the
    series engine's sequence that computes each P_k(m) on its first read."""

    k: int
    values: tuple

    @property
    def m_max(self) -> int:
        return len(self.values)

    def p(self, m: int) -> ErrorBoundedReal:
        if not 1 <= m <= self.m_max:
            raise ValueError(f"P_{self.k}({m}) not computed (have 1..{self.m_max})")
        return self.values[m - 1]


def tail_bound(k: int, m: int, B: int):
    """Proven upper bound (mpf) on the shape sum of lam^(-m) omitted by a
    coordinate box b_j <= B, i.e. over every shape outside
    shape_tuples(k, box=B).

    Union bound over which coordinate exceeds B; each case is bounded by
    dropping the squarefree-coprimality constraint, giving a tail
    sum_{b>B} b^(-s) <= B^(1-s)/(s-1) times full zeta factors for the other
    coordinates.  Monotone nonincreasing in B.
    """
    if k < 2 or m < 1 or B < 2:
        raise ValueError("need k >= 2, m >= 1, B >= 2")
    with mp.workdps(30):
        total = mpf(0)
        for jstar in range(1, k):
            s_star = mpf(m * (k + jstar)) / k
            piece = mpf(B) ** (1 - s_star) / (s_star - 1)
            for j in range(1, k):
                if j != jstar:
                    piece *= zeta(Fraction(m * (k + j), k), 20).hi()
            total += piece
        return total


def power_sum_direct(k: int, m: int, B: int) -> ErrorBoundedReal:
    """Truncated P_k(m) over the coordinate box b_j <= B, plus a radius of
    tail_bound(k, m, B) and a float-accumulation envelope."""
    if k < 2 or m < 1 or B < 2:
        raise ValueError("need k >= 2, m >= 1, B >= 2")
    if k == 2:
        if B > _DIRECT_WORK_CAP:
            raise ValueError("box too large")
        sf = squarefree_sieve(B)
        s = 1.5 * m
        total = fsum(b ** (-s) for b in range(2, B + 1) if sf[b])
        work = B
    elif k == 3:
        if B * 15 > _DIRECT_WORK_CAP:
            raise ValueError("box too large")
        import numpy as np

        total = _box_sum_k3(m, B)
        work = int(B * (np.log(B) + 1))
    else:
        if B ** (k - 1) > 10**7:
            raise ValueError("box too large for exhaustive tuple enumeration")
        total = _box_sum_generic(k, m, B)
        work = B ** (k - 1)
    with mp.workdps(30):
        slop = mpf(work + 16) * mpf(2.3e-16) * 8
        return ErrorBoundedReal(mpf(total), tail_bound(k, m, B) + slop)


_GATHER = 1 << 14  # box indices gathered per numpy pass


@lru_cache(maxsize=4)
def _box(k: int, B: int):
    """The coordinate box b_j <= B, walked once per (k, B) for every m.

    k = 3: the Moebius signs mu of the squarefree d <= B, ascending; the
    multiples of each d laid end to end in idx (int32), the run of the j-th
    d starting at starts[j]; spans (j0, j1) of consecutive runs, about
    _GATHER indices each; and the squarefree mask sf over 0..B.
    k >= 4: the proper box tuples of shape_tuples as k - 1 index columns.
    """
    import numpy as np

    if k == 3:
        mu = np.array(mobius_sieve(B), dtype=np.int8)
        ds = np.flatnonzero(mu).astype(np.int32)
        runs = B // ds
        starts = np.cumsum(runs, dtype=np.int64) - runs
        # the run of d is d, 2d, ..., (B // d) d
        idx = np.arange(1, runs.sum() + 1, dtype=np.int32)
        idx -= np.repeat(starts.astype(np.int32), runs)
        idx *= np.repeat(ds, runs)
        cuts = sorted(set(np.searchsorted(starts, np.arange(0, len(idx), _GATHER)).tolist()))
        spans = list(zip(cuts, cuts[1:] + [len(ds)]))
        return mu[ds].astype(np.float64), idx, starts, spans, mu != 0
    tuples = shape_tuples(k, box=B)  # the all-ones tuple, M = 1, is one of them
    cols = np.fromiter(chain.from_iterable(b for M, b in tuples if M > 1), dtype=np.int32,
                       count=(len(tuples) - 1) * (k - 1))
    return tuple(cols.reshape(-1, k - 1).T)


def _box_sum_k3(m: int, B: int) -> float:
    # pairwise coprimality resolved by the gcd-Moebius identity:
    # sum_{gcd(b1,b2)=1} f(b1) g(b2) = sum_d mu(d) (sum_{d|b1} f)(sum_{d|b2} g),
    # each inner sum one segment of np.add.reduceat over the box's multiples
    import numpy as np

    mu, idx, starts, spans, sf = _box(3, B)
    b = np.arange(B + 1, dtype=np.float64)
    b[0] = 1.0
    w1 = np.where(sf, b ** (-4.0 * m / 3.0), 0.0)
    w2 = np.where(sf, b ** (-5.0 * m / 3.0), 0.0)
    s1, s2 = [], []
    for j0, j1 in spans:
        i0, i1 = starts[j0], (starts[j1] if j1 < len(starts) else len(idx))
        seg = idx[i0:i1]
        s1.append(np.add.reduceat(w1[seg], starts[j0:j1] - i0))
        s2.append(np.add.reduceat(w2[seg], starts[j0:j1] - i0))
    parts = mu * np.concatenate(s1) * np.concatenate(s2)
    return fsum(parts.tolist()) - 1.0  # remove the (1,1) tuple


def _box_sum_generic(k: int, m: int, B: int) -> float:
    # each term is prod_j b_j^(-m(k+j)/k), read from one power table per j
    import numpy as np

    b = np.arange(B + 1, dtype=np.float64)
    b[0] = 1.0
    w = None
    for j, col in enumerate(_box(k, B), start=1):
        t = (b ** (-(m * (k + j) / k)))[col]
        w = t if w is None else w * t
    return fsum(w.tolist())


_T_CAP = 600
_LOG_TABLES = {}  # k -> (c, h), the coefficient lists _log_coeffs grows


def _log_coeffs(k: int, T: int) -> tuple:
    """Exact coefficients (c_t, h_t) of log(1 + g) and of -log(1 - g), where
    g(x) = x^(k+1) + ... + x^(2k-1), for t = 0..T at least (T <= _T_CAP).
    h dominates |c|.  The per-k lists grow on demand, each time to about
    twice their length (never past _T_CAP), and only by appending, so
    entries already read never change; callers must not modify them.

    c_t = [k < t < 2k] - sum (u/t) c_u and h_t = [k < t < 2k] + sum (u/t) h_u,
    both over u = t - d >= 1 for the k - 1 orders k < d < 2k where g has a
    coefficient."""
    c, h = _LOG_TABLES.setdefault(k, ([Fraction(0)], [Fraction(0)]))
    if len(c) <= T:
        for t in range(len(c), min(max(T, 2 * len(c) - 1), _T_CAP) + 1):
            sc = sh = Fraction(1 if k < t < 2 * k else 0)
            for d in range(k + 1, min(2 * k, t)):
                w = Fraction(t - d, t)
                sc -= w * c[t - d]
                sh += w * h[t - d]
            c.append(sc)
            h.append(sh)
    return c, h


@lru_cache(maxsize=None)
def power_sum_euler(k: int, m: int, digits: int = 30,
                    p0: int = DEFAULT_PRIME_CUTOFF) -> ErrorBoundedReal:
    """P_k(m) through the Euler product, radius <= 10^(-digits) or ArithmeticError."""
    if k < 2 or m < 1:
        raise ValueError("need k >= 2, m >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    fail = f"could not certify P_{k}({m}) to {digits} digits"
    with mp.workdps(digits + 15):
        # raise the exact-product cutoff until the tail factor polynomial is
        # small at the first omitted prime (keeps the log series geometric)
        p0_eff = max(p0, 2)
        while True:
            q = next_prime(p0_eff)
            y = _prime_power(q, Fraction(m, k))
            gy = sum(y ** (k + j) for j in range(1, k))
            if gy <= mpf("0.5"):
                break
            p0_eff = q

        # a prime whose s_p is below the floor enters through the radius
        # alone, by 0 <= log1p(s_p) <= s_p; s_p falls as p grows
        floor = mpf(10) ** (-(digits + 12))
        S, dropped = _exact_product(k, m, primes_upto(p0_eff), floor)
        L = S.log1p()
        if dropped:
            half = dropped * mpf("0.500001")
            L = L + ErrorBoundedReal(half, half)

        # formal-log tail over primes > p0_eff: sum_t c_t * PZT(t m / k), cut
        # at the smallest t_max whose bound on everything past it is below
        # target:  sum_{t>t_max} h_t q^{-tm/k} * (1 + q/(s'-1)),  s' = (t_max+1)m/k
        # (the padding term repays the rounding of neg_log - partial_h).  The
        # target is the floor the cascade's log-zeta terms are computed to
        # (digits + 6, then 4 deeper), so the cut never dominates the radius.
        target = mpf(10) ** (-(digits + 10))
        neg_log = -mp.log1p(-gy)
        partial_h = mpf(0)
        for t_max in range(k, _T_CAP + 1):
            c, h = _log_coeffs(k, t_max)
            if h[t_max]:
                partial_h += mpf(h[t_max].numerator) / h[t_max].denominator * y**t_max
            s_prime = mpf(m * (t_max + 1)) / k
            tail = ((neg_log - partial_h) * (1 + q / (s_prime - 1)) * mpf("1.000001")
                    + neg_log * mp.eps * 4 * (t_max + 2))
            if tail < target:
                break
        else:
            raise ArithmeticError(f"{fail}: formal-log cut reached t = {_T_CAP}")
        for t in range(k + 1, t_max + 1):
            if not c[t]:
                continue
            tail_digits = digits + next(e for e in count(6) if abs(c[t]) <= 10**e)
            pzt = prime_zeta_tail(Fraction(m * t, k), p0_eff, tail_digits)
            L = L + pzt * (mpf(c[t].numerator) / c[t].denominator)
        out = L.widened(tail).expm1()
        if out.radius > mpf(10) ** (-digits):
            raise ArithmeticError(f"{fail}: radius {mp.nstr(out.radius, 2)} > 1e-{digits}")
    return out


def _exact_product(k, m, primes, floor):
    """(S, dropped) at the working precision: S = prod_p (1 + s_p) - 1 as an
    enclosure, s_p = sum_j p^(-m(k+j)/k), over the (non-empty, ascending)
    primes up to the first whose s_p is below floor, and dropped = the sum
    of s_p over the rest.

    The terms are u_p^(m(k+j)), u_p = p^(-1/k) from the table of prime roots
    at W = working precision + _GUARD_BITS bits, and S is one raw W-bit mpf
    updated by S <- S + s_p (1 + S).  Every term is positive, so S keeps its
    relative precision when each factor is 1 + tiny (the coefficient sums
    amplify absolute errors in P by up to ~4^r, so the log of a rounded
    product prod (1 + s_p) would not do).  The count, in units of
    eps_W = 2^(1-W), with a = m(2k-1) the largest exponent:

      u_p^a is within a + 2 (see zetas); s_p, summed exactly and rounded
      once, is within a + 3.
      An update's three positive parts S, s_p and s_p S carry relative
      errors e, a + 3 and e + a + 3 to first order, so the update, taken
      exactly and rounded once, is within e + a + 3 + 1/2.  One more 1/2
      takes every second-order term, since n (a + 4) eps_W < 2^-20.
      After n updates S is within n (a + 4); rounding it to working
      precision adds eps/2 = 2^(_GUARD_BITS-1), and 1 more pays for taking
      the radius relative to the rounded value.
    """
    prec = mp.prec
    W = prec + _GUARD_BITS
    roots = _prime_roots(k, W, primes[-1])
    exps = [m * (k + j) for j in range(1, k)]
    S, n = fzero, 0
    dropped = mpf(0)
    for p in primes:
        s_p = mpf_sum([mpf_pow_int(roots[p], a, W, round_nearest) for a in exps],
                      W, round_nearest)
        if dropped or mpf_lt(s_p, floor._mpf_):
            dropped += mp.make_mpf(s_p)
            continue
        S = mpf_sum((S, s_p, mpf_mul(s_p, S)), W, round_nearest)
        n += 1
    v = mp.make_mpf(mpf_pos(S, prec, round_nearest))
    units = n * (exps[-1] + 4) + 1 + (1 << (_GUARD_BITS - 1))
    return ErrorBoundedReal(v, mp.fmul(v, mp.ldexp(units, 1 - W), rounding="u")), dropped


def power_sums(k: int, m_max: int, digits: int = 30,
               p0: int = DEFAULT_PRIME_CUTOFF) -> PowerSums:
    """P_k(1..m_max) through the Euler-product route."""
    return PowerSums(k, tuple(power_sum_euler(k, m, digits, p0) for m in range(1, m_max + 1)))
