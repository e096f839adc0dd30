"""Root shapes of proper k-full integers and their Dirichlet power sums.

Every proper k-full integer is a^k * lam^k for a unique integer a >= 1 and
a unique real lam = (b_1^(k+1) * ... * b_(k-1)^(2k-1))^(1/k) > 2 drawn from
the squarefree pairwise-coprime tuples b with product >= 2.  The element is
identified by its integer tuple b (never by a floating approximation); the
integer radicand lam^k orders the set, so enumeration and sorting are exact.

The power sums  P_k(m) = sum over shapes of lam^(-m)  are evaluated by two
independent routes:

* power_sum_direct: the float sum over the shapes lam <= L, which
  arith.shape_tuples(k, L^k) lists (walked once per (k, L) for every m),
  plus the rest, bounded by partial summation with a proven count.  For
  each outer tuple b_2..b_(k-1), the b_1 >= 1 with b_1^(k+1) <= Y,
  Y = x^k / prod_(j>=2) b_j^(k+j), number at most Y^(1/(k+1)).  Summed over
  every outer tuple of positive integers, with sum_(b>=1) b^(-s) <= s/(s-1)
  at s = (k+j)/(k+1) > 1, that counts every tuple with lam <= x, so

      N(x) = #{lam <= x} <= A_k x^theta,  theta = k/(k+1),
      A_k = prod_(j=2..k-1) (k+j)/(j-1),

  and, with m > theta,

      sum_(lam>L) lam^(-m) = m int_L^inf N(x) x^(-m-1) dx - N(L) L^(-m)
                          <= T = m A_k L^(theta-m)/(m-theta) - N(L) L^(-m)

  (tail_bound).  The route reads no zeta value and no prime, and its tail
  falls like L^(theta-m), so it serves as the oracle route.

* power_sum_euler: since each prime divides at most one b_j, the sum over
  all shape tuples factors over primes,

      1 + P_k(m) = prod_p (1 + g(y_p)),  y_p = p^(-m/k),
      g(y) = y^(k+1) + ... + y^(2k-1),

  evaluated with small primes multiplied in exactly and the remaining
  primes through the integer (Witt) exponents of g (H. Cohen, "High
  precision computation of Hardy-Littlewood constants", 1998; P. Moree,
  "Approximation of singular series and automata", 2000):

      log(1 + g(y)) = sum_n a_n (-log(1 - y^n)),  n a_n = sum_{d|n} mu(n/d) b_d,

  b_t = t c_t the integers with log(1 + g) = sum_t c_t y^t (_witt_exponents).
  Summed over the primes p >= q, the first past the cutoff, each term is
  a_n Lambda(n m / k), Lambda = zetas._sieved_log_zeta, so P_k(m) is one
  bounded.dot of log1p(S) and the pairs (Lambda(n m / k), a_n), n <= N,
  widened by the bound on the rest and passed through expm1.  Lambda(j/k)
  is read to digits + _LAMBDA_DIGITS + ceil(log10 max_{d|j} |a_d|) digits,
  which depend on j alone, so every P_k(m) with n m = j shares one cached
  value and no weight a_n swamps the radius.

  The one cut N comes from a proven bound.  For n > N,
  0 <= Lambda(n m / k) <= y^n f_N with y = q^(-m/k), f_N = 1 + q/(s' - 1),
  s' = (N + 1) m / k.  |a_n| <= sum_{d|n} (d/n) h_d, h_d >= |c_d| the
  coefficients of -log(1 - g) (_log_coeffs); the d = n terms and the
  multiples n = d j, j >= 2, of each d <= M give

      sum_{n>M} |a_n| y^n <= R_M = [sum_{d>M} h_d y^d + (y^(M+1)/2) sum_{d<=M} h_d] / (1 - y).

  The first sum is bounded without cancellation: h_t <= sum h_(t-d) over the
  orders k < d < 2k for t >= 2k, so with rho < x0 (g(rho) < 1) every h_t,
  t > M, is at most K rho^(-t), K = max h_s rho^s over M - 2k + 2 <= s <= M,
  and sum_{d>M} h_d y^d <= K (y/rho)^(M+1) / (1 - y/rho).  The terms
  u_n = |a_n| y^n are summed exactly up to the first M with R_M f_M below
  10^-15 of the target 10^-(digits + 13), and N is the smallest cut whose
  bound (sum_{N<n<=M} u_n + R_M) f_N stays below the target; at _T_CAP it
  may fall short of the target by up to the 10^3 that _cut_estimate allows.
  When N = k no Lambda term survives (at the engine's digits, every m past
  about 25): each omitted factor is at least 1, so
  S <= P_k(m) <= (1 + S) e^x - 1, x = dropped + tail, bounded by
  e^x - 1 <= x + x^2 with no log1p/expm1 round trip.  The result has radius
  <= 10^(-digits) or raises ArithmeticError naming the cause (the cut
  reached _T_CAP, or the radius it reached).  Below the default cutoff p0
  is raised until the cut is expected to fit under _T_CAP (_cut_estimate),
  so a cutoff as small as 1 or 2 certifies as well.  A prime whose factor
  sum is below the working floor is moved into the radius by
  0 <= log1p(x) <= x.
  The exact-product factors p^(-m(k+j)/k) are integer powers of the roots
  r_p = floor(p^(-1/k) 2^F) from zetas' fixed-point table, as is the first
  omitted prime's y = q^(-m/k), not exp/log pairs.  The exact primes
  accumulate as one integer S = prod_p (1 + s_p) - 1 at a scale set by the
  first s_p, through the update S <- S + s_p + floor(s_p S), each s_p an
  exact sum of F-bit powers.  All its terms are positive, so S keeps its
  relative precision when every factor is 1 + tiny; its floors are counted
  inside the old relative radius of n (a + 4) units of 2^(1-W) after n
  primes, a = m(2k-1), plus the rounding to working precision (see
  _exact_product).

Neither route loads numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import exp, fsum, inf, isqrt, log, prod
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, mpf_lt, round_ceiling, round_nearest

from .arith import LambdaElement, introot, mobius_sieve, next_prime, shape_tuples
from .bounded import ErrorBoundedReal, dot
from .zetas import (_GUARD_BITS, _fixed_roots, _float_pow, _fraction_bits, _prime_power,
                    _sieved_log_zeta, primes_upto)

DEFAULT_ELEMENT_CAP = 2_000_000


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
    lam <= bound iff radicand <= bound^k, taken over the rationals; a bound
    below the smallest shape gives none, and a non-finite one raises."""
    if k < 2:
        raise ValueError("k must be >= 2")
    try:
        bound = Fraction(bound)
    except (ValueError, OverflowError):
        raise ValueError(f"bound must be finite, got {bound}") from None
    limit = max(bound, 0) ** k
    if limit < lambda_min_radicand(k):
        return []
    X = int(limit)  # floor; radicands are integers so the comparison is exact
    return [LambdaElement(k, b) for M, b in shape_tuples(k, X, cap=cap) if M >= 2]


class _Grown:
    """The sequence v_0..v_top, each value computed by step(i) on its first
    read, in ascending order (step(i) may read v_0..v_(i-1)) and at the
    precision that was current when the sequence was made.  A value never
    depends on what was read before it or on the precision its reader holds."""

    def __init__(self, top: int, step):
        self._top = top
        self._step = step
        self._prec = mp.prec
        self._vals = []

    def __len__(self) -> int:
        return self._top + 1

    def __getitem__(self, i: int):
        if not 0 <= i <= self._top:
            raise IndexError(f"index {i} beyond 0..{self._top}")
        vals = self._vals
        if i >= len(vals):
            with mp.workprec(self._prec):
                while len(vals) <= i:
                    vals.append(self._step(len(vals)))
        return vals[i]


class PowerSums(NamedTuple):
    """P_k(1), ..., P_k(m_max) as enclosures; values is a tuple, or a
    sequence that computes each P_k(m) on its first read (_Grown)."""

    k: int
    values: tuple

    @property
    def m_max(self) -> int:
        return len(self.values)

    def p(self, m: int) -> ErrorBoundedReal:
        if not 1 <= m <= self.m_max:
            raise ValueError(f"P_{self.k}({m}) not computed (have 1..{self.m_max})")
        return self.values[m - 1]


@lru_cache(maxsize=4)
def _head(k: int, L: int) -> tuple:
    """-ln(lam) for every shape lam <= L, as floats: the walk of
    shape_tuples(k, L^k), once per (k, L) for every m."""
    return tuple(-log(M) / k for M, _ in shape_tuples(k, L**k, cap=DEFAULT_ELEMENT_CAP)
                 if M > 1)


def _tail(k: int, m: int, L: int) -> Fraction:
    """T of the module docstring as an exact rational, with L^theta taken
    from above at 64 fraction bits."""
    theta = Fraction(k, k + 1)
    A = prod(Fraction(k + j, j - 1) for j in range(2, k))
    U = Fraction(introot(L**k << 64 * (k + 1), k + 1) + 1, 1 << 64)  # > L^theta
    return (m * A * U / (m - theta) - len(_head(k, L))) / L**m


def tail_bound(k: int, m: int, L: int) -> mpf:
    """Proven upper bound on the sum of lam^(-m) over the shapes lam > L,
    i.e. over every shape outside shape_tuples(k, L^k): T of the module
    docstring, rounded up.  Decreasing in L."""
    if k < 2 or m < 1 or L < 2:
        raise ValueError("need k >= 2, m >= 1, L >= 2")
    T = _tail(k, m, L)
    return mp.make_mpf(from_rational(T.numerator, T.denominator, 64, round_ceiling))


def power_sum_direct(k: int, m: int, L: int) -> ErrorBoundedReal:
    """P_k(m) from the shapes lam <= L: their float sum S plus [0, T],
    T = tail_bound(k, m, L), returned as S + T/2 with radius T/2 plus the
    float envelope E below.  Raises ValueError past DEFAULT_ELEMENT_CAP
    shapes.

    Each term is exp(m x), x = -log(M)/k.  With u = 2^-53, a correctly
    rounded int-to-float conversion and log and exp within an ulp,
    log(M) errs by at most 4u (ln M + 1), so x by u (5.01 ln lam + 2) and
    m x by Delta = m u (6.1 ln lam + 2); exp makes the term's relative error
    at most 1.01 Delta + 2.01u (Delta < 0.01 for m ln L < 10^12), plus
    2^-1074 absolute where it falls past the normal range.  fsum rounds the
    exact sum of the terms once.  So, with ln lam <= ln L < 0.7 b,
    b = L.bit_length(), the computed S is within
    E = u (m (5 b + 3) + 4) S + N(L) 2^-1070 of the exact head."""
    if k < 2 or m < 1 or L < 2:
        raise ValueError("need k >= 2, m >= 1, L >= 2")
    head = _head(k, L)
    S = Fraction(fsum([exp(m * x) for x in head]))
    T = _tail(k, m, L)
    E = S * Fraction(m * (5 * L.bit_length() + 3) + 4, 1 << 53) + Fraction(len(head), 1 << 1070)
    with mp.workdps(30):
        return ErrorBoundedReal(S + T / 2, T / 2 + E)


# the cutoff below which power_sum_euler multiplies primes in exactly; a
# smaller one is raised until the Witt cut is expected to fit under _T_CAP
DEFAULT_PRIME_CUTOFF = 100
_T_CAP = 600
_CUT_DIGITS = 13  # the Witt cut's target is 10^-(digits + _CUT_DIGITS)
_LAMBDA_DIGITS = 12  # Lambda(j/k) is read to digits + this + _witt_digits(k, j)
_REST_DIGITS = 15  # the bound past the summed terms is 10^-this of that target
_LOG_TABLES = {}  # k -> (c, h), the coefficient lists _log_coeffs grows
_WITT_TABLES = {}  # k -> [a_0, a_1, ...], the exponents _witt_exponents grows


def _log_coeffs(k: int, T: int) -> tuple:
    """Exact coefficients (c_t, h_t) of log(1 + g) and of -log(1 - g), where
    g(x) = x^(k+1) + ... + x^(2k-1), for t = 0..T at least (T <= _T_CAP).
    h dominates |c|.  The per-k lists grow on demand, each time to about
    twice their length (never past _T_CAP), and only by appending, so
    entries already read never change; callers must not modify them.

    c_t = [k < t < 2k] - sum (u/t) c_u and h_t = [k < t < 2k] + sum (u/t) h_u,
    both over u = t - d >= 1 for the k - 1 orders k < d < 2k where g has a
    coefficient.  The Witt cut reads h; c is the rational reference the
    integer exponents of _witt_exponents are tested against."""
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


def _witt_exponents(k: int, T: int) -> list:
    """The integers a_n, n = 0..T at least (T <= _T_CAP), with
    log(1 + g(y)) = sum_n a_n (-log(1 - y^n)), g as in _log_coeffs.

    Matching the coefficients of y^t gives b_t = sum_{n | t} n a_n for the
    integers b_t = t c_t, which follow from b_t = t [k < t < 2k] - sum b_(t-d)
    over the orders k < d < 2k; Moebius inversion gives n a_n =
    sum_{d | n} mu(n/d) b_d.  The per-k list is rebuilt on demand to about
    twice its length (never past _T_CAP); its entries are exact, so the
    ones already read never change."""
    a = _WITT_TABLES.get(k, [0])
    if len(a) <= T:
        T = min(max(T, 2 * len(a) - 1), _T_CAP)
        b = [0] * (T + 1)
        for t in range(k + 1, T + 1):
            b[t] = (t if t < 2 * k else 0) - sum(b[t - d] for d in range(k + 1, min(2 * k, t)))
        mu = mobius_sieve(T)
        na = [0] * (T + 1)
        for d in range(k + 1, T + 1):
            for n in range(d, T + 1, d):
                na[n] += mu[n // d] * b[d]
        a = _WITT_TABLES[k] = [0] + [na[n] // n for n in range(1, T + 1)]
    return a


def _witt_digits(k: int, j: int) -> int:
    """ceil(log10 max |a_d|) over the divisors d <= _T_CAP of j: Lambda(j/k)
    is read with weight a_n from every P_k(m) with n m = j, so digits that
    depend on j alone let every such m share one cached Lambda."""
    a = _witt_exponents(k, min(j, _T_CAP))
    top = max(abs(a[e]) for d in range(1, isqrt(j) + 1) if not j % d
              for e in (d, j // d) if e <= _T_CAP)
    return next(e for e in count() if top <= 10**e)


@lru_cache(maxsize=None)
def _convergence_radius(k: int) -> float:
    """x0 in (0, 1] with g(x0) = 1, g(x) = x^(k+1) + ... + x^(2k-1), by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sum(mid ** (k + j) for j in range(1, k)) < 1 else (lo, mid)
    return hi


def _cut_estimate(k: int, m: int, q: int, digits: int) -> float:
    """About where the Witt cut of P_k(m) (_witt_cut) falls when q is the
    first omitted prime, erring low.  Its bound sums h_t y^t, and the
    coefficients h_t of -log(1 - g) grow like x0^(-t)/t, so the tail past t
    is about rho^t/t with rho = q^(-m/k)/x0.  This is the t where
    rho^t/_T_CAP reaches 10^-(digits+10), the bound the cut accepts at
    _T_CAP, less 3 orders: the cut stops one order before that term, and at
    k = 2 (g = x^3) only every third order has one."""
    return ((digits + 10) * log(10) - log(_T_CAP)) / (log(_convergence_radius(k))
                                                      + m / k * log(q)) - 3


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
        # and, below the default cutoff, until the Witt cut is expected to
        # fit under _T_CAP
        p0_eff = max(p0, 2)
        while True:
            q = next_prime(p0_eff)
            y = _prime_power(q, Fraction(m, k))
            gy = sum(y ** (k + j) for j in range(1, k))
            if gy <= mpf("0.5") and (p0_eff >= DEFAULT_PRIME_CUTOFF
                                     or _cut_estimate(k, m, q, digits) <= _T_CAP):
                break
            p0_eff = q

        # a prime whose s_p is below the floor enters through the radius
        # alone, by 0 <= log1p(s_p) <= s_p; s_p falls as p grows
        floor = mpf(10) ** (-(digits + 12))
        S, dropped = _exact_product(k, m, primes_upto(p0_eff), floor)

        # the primes past p0_eff give sum_n a_n Lambda(n m / k), cut after N
        cut = _witt_cut(k, m, q, y, digits)
        if cut is None:
            raise ArithmeticError(f"{fail}: Witt cut reached t = {_T_CAP}")
        N, tail = cut
        if N == k:
            # no Lambda term: each omitted factor is at least 1, so
            # S <= P <= (1 + S) e^x - 1, x = dropped + tail, e^x - 1 <= x + x^2
            x = (dropped + tail) * mpf("1.000001")
            lo = S.lo()
            hi = mp.fadd(S.hi(), mp.fmul(mp.fadd(1, S.hi(), rounding="u"), x + x * x,
                                         rounding="u"), rounding="u")
            v = mp.fdiv(mp.fadd(lo, hi, exact=True), 2)
            out = ErrorBoundedReal(v, max(mp.fsub(hi, v, rounding="u"),
                                          mp.fsub(v, lo, rounding="u")))
        else:
            a = _witt_exponents(k, N)
            pairs = [(S.log1p(), 1)]
            if dropped:
                half = dropped * mpf("0.500001")
                pairs.append((ErrorBoundedReal(half, half), 1))
            for n in range(k + 1, N + 1):
                if a[n]:
                    lam_digits = digits + _LAMBDA_DIGITS + _witt_digits(k, n * m)
                    pairs.append((_sieved_log_zeta(Fraction(n * m, k), p0_eff, lam_digits), a[n]))
            out = dot(pairs).widened(tail).expm1()
        if out.radius > mpf(10) ** (-digits):
            raise ArithmeticError(f"{fail}: radius {mp.nstr(out.radius, 2)} > 1e-{digits}")
    return out


def _witt_cut(k: int, m: int, q: int, y: mpf, digits: int):
    """(N, tail): the cut of sum_n a_n Lambda(n m / k) over the primes >= q,
    y = q^(-m/k), and a bound tail >= |sum_{n>N} a_n Lambda(n m / k)|; None
    when no cut up to _T_CAP reaches its bound (module docstring).

    For n > N, 0 <= Lambda(n m / k) <= y^n f_N, f_N = 1 + q/(s' - 1),
    s' = (N + 1) m / k.  u_n = |a_n| y^n is summed up to the first M whose
    bound R_M on sum_{n>M} |a_n| y^n is 10^-_REST_DIGITS of the target, and
    N is the smallest cut whose bound (sum_{N<n<=M} u_n + R_M) f_N is below
    the target.  M and N are searched on float64 logarithms; the tail is
    then bounded at the working precision, R_M as y^(M+1) times a float64
    factor whose few roundings, each 2^-53 relative, the pad repays."""
    pad = mpf("1.000001")

    def f(n):  # 1 + q/(x - 1) at x = (n + 1) m / k
        return 1 + q * k / (m * (n + 1) - k)

    # rho < x0 by far more than x0's float error, so g(rho) < 1
    rho, ly = _convergence_radius(k) * (1 - 2.0**-20), float(mp.log(y))
    y_f, goal = exp(ly), -(digits + _CUT_DIGITS) * log(10)
    w, h_sum, M = [], 0.0, k  # w holds h_s rho^s
    B = lR = inf  # R_M = y^(M+1) B
    while M < _T_CAP and not lR + log(f(M)) < goal - _REST_DIGITS * log(10):
        M += 1
        h_M = float(_log_coeffs(k, M)[1][M])
        h_sum += h_M
        w.append(h_M * rho**M)
        if M >= 2 * k - 1:
            B = (max(w[-(2 * k - 1):]) / rho ** (M + 1) / (1 - y_f / rho) + h_sum / 2) / (1 - y_f)
            lR = (M + 1) * ly + log(B)
    a = _witt_exponents(k, M)
    N, scaled = M, exp(min(lR - goal, 0))  # sum_{N<n<=M} u_n + R_M over the target
    while N > k:
        u_N = exp(min(log(abs(a[N])) + N * ly - goal, 700)) if a[N] else 0.0
        if (scaled + u_N) * f(N - 1) >= 1:
            break
        N, scaled = N - 1, scaled + u_N
    y_n, tail = y ** (N + 1), mpf(0)
    for n in range(N + 1, M + 1):
        if a[n]:
            tail += abs(a[n]) * y_n
        y_n *= y
    R = y_n * B
    # at _T_CAP (small cutoffs) the cut may stop short of the target, by up
    # to the 10^3 that _cut_estimate, which sizes p0_eff, allows for
    if not R * f(M) < mpf(10) ** (3 - digits - _CUT_DIGITS):
        return None
    return N, (tail + R) * f(N) * pad


def _exact_product(k, m, primes, floor):
    """(S, dropped) at the working precision: S = prod_p (1 + s_p) - 1 as an
    enclosure, s_p = sum_j p^(-m(k+j)/k), over the (non-empty, ascending)
    primes up to the first whose s_p is below floor, and dropped = the sum
    of s_p over the rest.

    The terms are _float_pow(r_p, m(k+j)) from zetas' fixed-point table of
    roots r_p = floor(p^(-1/k) 2^F), each a mantissa of F bits with its own
    exponent, so a tiny term keeps its relative precision.  s_p is their
    exact sum.  S is one integer at G fraction bits, G the exponent of the
    first s_p, updated by S <- S + s_p + floor(s_p S / 2^G).  Every term is
    positive, so S keeps its relative precision when each factor is
    1 + tiny (the coefficient sums amplify absolute errors in P by up to
    ~4^r, so the log of a rounded product prod (1 + s_p) would not do).

    Every value errs low.  With a = m(2k-1) the largest exponent, a term is
    within a (p^(1/k) + 2) 2^(1-F) relative (see zetas), and so is s_p.
    Aligning s_p to 2^-G floors it by less than one unit of 2^-G, and an
    update errs by at most e(S) (1 + s_p) + e(s_p) (1 + S) + 1 units.  S is
    at least 2^(F-1) units from the first update on, so after n updates its
    relative error is below (1 + S) (a (p^(1/k) + 2) + n (2 + S)) 2^(1-F).
    The radius keeps the old count of n (a + 4) units of eps_W = 2^(1-W),
    W = working precision + _GUARD_BITS, relative.  One eps_W is at least
    2^32 units of 2^(1-F), and 1 + S <= 1 + P_k(1) < 2^6 and p^(1/k) < 2^20
    for every k and cutoff the engine serves, so the count sits far inside
    it.  Rounding S to working precision adds eps/2 = 2^(_GUARD_BITS-1)
    eps_W, and 1 more pays for taking the radius relative to the rounded
    value.
    """
    prec = mp.prec
    W = prec + _GUARD_BITS
    F = _fraction_bits(prec)
    roots = _fixed_roots(k, F, primes[-1])
    exps = [m * (k + j) for j in range(1, k)]
    S = G = n = 0
    dropped = mpf(0)
    for p in primes:
        terms = [_float_pow(roots[p], a, F) for a in exps]
        e0 = max(e for _, e in terms)
        s = sum(man << (e0 - e) for man, e in terms)  # s_p = s 2^-e0, exactly
        s_p = from_man_exp(s, -e0)
        if dropped or mpf_lt(s_p, floor._mpf_):
            dropped += mp.make_mpf(s_p)
            continue
        if not n:
            G = e0
        s = s >> (e0 - G) if e0 >= G else s << (G - e0)
        S += s + (s * S >> G)
        n += 1
    v = mp.make_mpf(from_man_exp(S, -G, prec, round_nearest))
    units = n * (exps[-1] + 4) + 1 + (1 << (_GUARD_BITS - 1))
    return ErrorBoundedReal(v, mp.fmul(v, mp.ldexp(units, 1 - W), rounding="u")), dropped


def power_sums(k: int, m_max: int, digits: int = 30,
               p0: int = DEFAULT_PRIME_CUTOFF) -> PowerSums:
    """P_k(1..m_max) through the Euler-product route, each computed on its
    first read."""
    return PowerSums(k, _Grown(m_max - 1, lambda i: power_sum_euler(k, i + 1, digits, p0)))
