"""Asymptotic densities with tracked error bounds.

Every density is a coefficient of one entire function,

    F_k(z) = prod (1 + (z-2)/lam) = sum_r xi_r (z-2)^r = sum_n a_n z^n,

where xi_r, the elementary symmetric functions of the shape reciprocals
1/lam, come from the power sums P_k(m) by Newton's identities
(r e_r = sum_{i=1..r} (-1)^(i-1) e_(r-i) p_i).

Every other fixed linear sum is a Taylor shift: the n-th coefficient of a
series sum_i s_i x^i moved to x + t is sum_j C(n+j, n) t^j s_(n+j).  One
primitive, _shift(s, l, m, T, t, P), computes C(l+m, l) times that sum
for n = l + m, cut after j = T, as one exact bounded.dot, widened by the
one truncation bound _tail for a series with |s_i| <= P^i / i!:

  - coefficients:  a_n = shift of xi by t = -2;
  - cells:         d(A[l,m]) = C(l+m, l) a_(l+m)               (direct)
                             = C(l+m, l) * (d shifted by -1)   (inversion);
  - one-sided:     d_l = xi shifted by -1                      (xi_alternating)
                       = a shifted by +1                       (row_sum);
  - total mass:    sum_n a_n 2^n = a shifted by +2, which must enclose 1;
  - exclusion sets:  d(B[I,J]) = prod_(U) 1/lam * prod_(not U) (1 - 2/lam)
    with U = I union J, evaluated as C_k rescaled by the finitely many
    excluded factors; C_k = a_0.

So both cell routes shift the one xi series, the direct one through the
coefficients and the inversion one through the one-sided densities: they
check the shift weights, the truncation bound and the published inversion
formula, not the xi values.  The weights are exact Python ints, signs and
powers of two included; a rounded weight such as Newton's 1/r stays
outside the dot as an ErrorBoundedReal multiply.  eval_F's log series goes
through dot as well, once its depth is chosen, with its rounded weights
(-w)^j / j as ErrorBoundedReals.

All infinite sums are truncated with proven bounds folded into the radius.
Every shifted series has the majorant |s_i| <= P^i / i!, P = P_k(1):
xi_r = e_r(1/lam) <= p_1^r / r!, and a_n and d_j sum the products xi_n and
xi_j sum, each times factors 1 - 2/lam or 1 - 1/lam that lie in [0, 1).
So every tail is P^n / (l! m!) times sum_{j>T} (|t| P)^j / j!, which
_exp_tail bounds by its ratio.  Every shift keeps the terms n..n + g past
its leading index n, with one guard g per (k, digits): _engine picks it
from the same bound and every route reads it, so no caller can ask for
another depth.  The depth matters for accuracy as well as cost: too
shallow leaves a tail the bound cannot hold tightly, and past the point
where xi_r reaches the working-precision noise floor the binomial weights
amplify that noise, so deeper sums would be worse, not better.  The
tracked radii account for both effects honestly.

The same majorant bounds every public read a priori: each cell lies in
[0, P^(l+m) / (l! m!)] and each d_l in [0, P^l / l!], and density_A and
density_shiu cut their enclosures to that interval (_within_majorant), so
no deep read prints a negative density or a radius wider than the bound.
An enclosure already inside is returned bit for bit, and the engine's own
sequences stay uncut, so every sum that reads them is unchanged.

The engine is the public builders composed: shapes.power_sums,
xi_from_power_sums and coeffs_a, plus the one-sided densities d (xi
shifted by -1 at digits + 20).  Each is a sequence that computes a value
the first time it is read (shapes._Grown), so the engine's depths are
ceilings, not work done up front.  Reading a_n grows xi up to n + g; reading
xi_r grows the power sums and Newton's identities up to r.  Every step runs
at the precision its sequence was made at, whatever the reader holds, and
each value depends only on the values below it, which are themselves
fixed, so it is bit-identical to an eager read whatever was read before it:
a table up to L builds the series to 2L + g of the ceiling
r_max = n_max + 2g.  The inversion cells read d_j from the engine, so each
is summed once per engine, not once per cell: a table up to (5,5) takes 51
one-sided sums, not 861.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from mpmath import mp, mpf

from .arith import LambdaElement, SubsetSpec  # noqa: F401  (re-exported)
from .bounded import ErrorBoundedReal, _round_up, dot
from .shapes import (
    PowerSums,
    _Grown,
    enumerate_lambda,
    lambda_value,
    power_sum_euler,
    power_sums,
)

DEFAULT_DIGITS = 30
# the deepest truncation guard _engine builds (k = 5 needs 130, k = 6 233)
_GUARD_CAP = 200
# eval_F's head holds about Lam0^(k/(k+1)) shapes at some M + 3 interval
# operations each; past this many (|z - 2| of about 1400 at k = 2, 600 at
# k = 3) it refuses
_HEAD_CAP = 20_000


class XiSequence(NamedTuple):
    """Elementary symmetric functions xi_0..xi_r_max of the 1/lam; xi is a
    sequence that grows on read (shapes._Grown), or a tuple."""

    k: int
    xi: tuple

    @property
    def r_max(self) -> int:
        return len(self.xi) - 1


class SeriesCoeffs(NamedTuple):
    """Power-series coefficients a_0..a_n_max of F_k around 0; a_0 = C_k.
    a is a sequence that grows on read (shapes._Grown), or a tuple."""

    k: int
    a: tuple

    @property
    def n_max(self) -> int:
        return len(self.a) - 1


class DensityTable(NamedTuple):
    """Symmetric matrix of cell densities, stored as the upper triangle."""

    k: int
    L: int
    method: str
    entries: dict

    def entry(self, l: int, m: int) -> ErrorBoundedReal:
        if l > m:
            l, m = m, l
        return self.entries[(l, m)]

    def cells(self):
        for l in range(self.L + 1):
            for m in range(l, self.L + 1):
                yield (l, m), self.entries[(l, m)]


def _shift(s, l: int, m: int, T: int, t: int, P) -> ErrorBoundedReal:
    """C(n, l) sum_{j<=T} C(n+j, n) t^j s(n+j), n = l + m, as one exact dot
    of int weights (C(n, l) times the n-th coefficient of sum_i s(i) x^i moved
    to x + t), widened by _tail for the majorant |s(i)| <= P^i / i!."""
    n, c = l + m, comb(l + m, l)
    terms = ((s(n + j), c * comb(n + j, n) * t**j) for j in range(T + 1))
    return dot(terms).widened(_tail(l, m, T, t, P))


def _tail(l: int, m: int, T: int, t: int, P):
    """The one truncation bound (mpf): if |s(i)| <= P^i / i!, the terms of
    _shift past T sum to at most

        C(n, l) sum_{j>T} C(n+j, n) |t|^j P^(n+j) / (n+j)!
            = P^n / (l! m!) * sum_{j>T} (|t| P)^j / j!."""
    return P**(l + m) / (mp.factorial(l) * mp.factorial(m)) * _exp_tail(abs(t) * P, T)


def _within_majorant(x: ErrorBoundedReal, P, l: int, m: int = 0) -> ErrorBoundedReal:
    """x cut to [0, P^(l+m) / (l! m!)], where cell (l, m), and with m = 0
    the one-sided d_l, lies a priori; the bound is the exact rational
    rounded up, its power of two applied exactly after the rounding."""
    n = l + m
    bound = _round_up(Fraction(P.man ** n, factorial(l) * factorial(m)))
    return x.clipped(0, mp.ldexp(bound, P.exp * n))


def _exp_tail(x, T: int):
    """Upper bound (mpf) on sum_{t > T} x^t / t!, for x < T + 2."""
    x = mpf(x)
    if not x < T + 2:
        raise ValueError("guard too small for ratio bound")
    first = x ** (T + 1) / mp.factorial(T + 1)
    return first / (1 - x / (T + 2))


def xi_from_power_sums(ps: PowerSums, r_max: int) -> XiSequence:
    """xi_0..xi_r_max by Newton's identities, each xi_r computed on its first
    read as one exact dot over xi_0..xi_(r-1) and the signed power sums
    (-1)^(i-1) p_i; xi_0 = 1 exactly, radii propagated."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    if ps.m_max < r_max:
        raise ValueError(f"need P_k(1..{r_max}), have 1..{ps.m_max}")
    # signed[i - 1] = (-1)^(i-1) p_i, negated once rather than once per r
    signed = _Grown(r_max - 1, lambda i: -ps.p(i + 1) if i % 2 else ps.p(i + 1))

    def step(r):
        if r == 0:
            return ErrorBoundedReal.exact(1)
        return dot((xi[r - i], signed[i - 1]) for i in range(1, r + 1)) * Fraction(1, r)

    xi = _Grown(r_max, step)
    return XiSequence(ps.k, xi)


def xi_direct(elements, r_max: int, digits: int = 30) -> list:
    """Elementary symmetric sums of 1/lam over a finite set of shapes, by the
    one-pass polynomial update.  Exact combinatorics at working precision."""
    keys = [e.b for e in elements]
    if len(set(keys)) != len(keys):
        raise ValueError("elements must be distinct")
    with mp.workdps(digits + 10):
        e = [mpf(1)] + [mpf(0)] * r_max
        for elem in elements:
            x = 1 / mp.root(mpf(elem.radicand()), elem.k)
            for j in range(min(r_max, len(e) - 1), 0, -1):
                e[j] += x * e[j - 1]
        return e


def coeffs_a(xi: XiSequence, n_max: int, guard: int) -> SeriesCoeffs:
    """a_n = sum_{r=n}^{n+guard} C(r,n) (-2)^(r-n) xi_r, the xi series shifted
    by -2 and computed on its first read; the truncation is bounded through
    xi_r <= P_k(1)^r / r!, with P_k(1) taken as xi_1's upper endpoint."""
    if n_max < 0 or guard < 1:
        raise ValueError("need n_max >= 0, guard >= 1")
    if xi.r_max < n_max + guard:
        raise ValueError(f"xi computed to {xi.r_max}, need {n_max + guard}")

    def step(n):
        return _shift(xi.xi.__getitem__, n, 0, guard, -2, xi.xi[1].hi())

    return SeriesCoeffs(xi.k, _Grown(n_max, step))


class Engine(NamedTuple):
    """The series engine for one (k, digits): its power sums, xi and
    coefficients, the guard g every series reads, and the one-sided
    densities d_0..d_(r_max - g); each sequence grows on read."""

    ps: PowerSums
    xi: XiSequence
    coeffs: SeriesCoeffs
    g: int
    d: _Grown


@lru_cache(maxsize=8)
def _engine(k: int, digits: int) -> Engine:
    """The series engine built from power_sums, xi_from_power_sums, coeffs_a
    and the one-sided d (xi shifted by -1), and the only place that picks a
    series depth.  The two cell routes read it: direct the coefficients,
    inversion the one-sided d.

    g is the number of terms every series keeps past its leading index: at
    least 40, deepened in steps of 5 until _tail's bound on a_0's dropped
    terms, sum_{t > g} (2 P_k(1))^t / t!, falls below 1e-16.  The xi
    majorant P_k(1)^r / r! only starts decaying past r ~ P_k(1), so for
    larger k (where P grows) g scales up on its own: 40, 45, 75 and 130 for
    k = 2..5.  k = 6 would need 233, past _GUARD_CAP, and there the search
    raises ArithmeticError naming k instead of building an engine that deep.
    The coefficients run to n_max = max(44, g), and r_max = n_max + 2g so
    that the inversion cells (one-sided densities up to index n_max + g,
    each g terms deep) stay inside the xi range: d runs to r_max - g.  The
    power sums gain digits to pay for the larger binomial weights the
    deeper sums incur.

    n_max and r_max are ceilings: the range checks read them, while P_k(m),
    xi_r, a_n and d_l grow on read (shapes._Grown) up to what the caller
    reads.  The working precision comes from the ceilings and
    (k, digits) alone, never from what was read, so a grown value is
    bit-identical to the eager one.
    """
    with mp.workdps(15):
        P = power_sum_euler(k, 1, 15).hi()
        g = max(40, int(2 * P) + 4)
        while g <= _GUARD_CAP and _tail(0, 0, g, -2, P) > 1e-16:
            g += 5
    if g > _GUARD_CAP:
        raise ArithmeticError(
            f"k = {k} is beyond the series engine: its truncation guard would pass "
            f"g = {_GUARD_CAP} with the bound still above 1e-16")
    n_max = max(44, g)
    r_max = n_max + 2 * g
    # the binomial weights in the coefficient sums amplify absolute xi errors
    # by up to ~4^r, so the power sums run ~30 digits deeper than the target,
    # plus ~0.65 per unit of extra depth beyond the k in {2,3} calibration
    extra = max(0, int(0.65 * (r_max + n_max - 168)) + 1)
    ps_digits = digits + 30 + extra
    with mp.workdps(digits + 40 + extra):
        ps = power_sums(k, r_max, ps_digits)
        xi = xi_from_power_sums(ps, r_max)
        coeffs = coeffs_a(xi, n_max, g)
    with mp.workdps(digits + 20):
        d = _Grown(r_max - g, lambda l: _shift(xi.xi.__getitem__, l, 0, g, -1, ps.p(1).hi()))
    return Engine(ps, xi, coeffs, g, d)


def series_coefficients(k: int, digits: int = DEFAULT_DIGITS) -> SeriesCoeffs:
    return _engine(k, digits).coeffs


def constant_C(k: int, digits: int = DEFAULT_DIGITS) -> ErrorBoundedReal:
    """C_k = prod (1 - 2/lam) = F_k(0) = a_0: the no-hit density."""
    return series_coefficients(k, digits).a[0]


def density_A(k: int, l: int, m: int, method: str = "direct",
              digits: int = DEFAULT_DIGITS) -> ErrorBoundedReal:
    """Density of integers with exactly l proper k-full numbers in the left
    interval and m in the right one, cut to [0, P^(l+m) / (l! m!)]."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if l < 0 or m < 0:
        raise ValueError("l and m must be >= 0")
    e = _engine(k, digits)
    n = l + m
    if n > e.coeffs.n_max:
        raise ValueError(f"l + m = {n} beyond computed range {e.coeffs.n_max}")
    P = e.ps.p(1).hi()
    with mp.workdps(digits + 20):
        if method == "direct":
            cell = e.coeffs.a[n] * mpf(comb(n, l))
        elif method == "inversion":
            cell = _shift(e.d.__getitem__, l, m, e.g, -1, P)
        else:
            raise ValueError(f"unknown method {method!r}")
        return _within_majorant(cell, P, l, m)


def density_shiu(k: int, l: int, method: str = "xi_alternating",
                 digits: int = DEFAULT_DIGITS) -> ErrorBoundedReal:
    """Density of integers with exactly l proper k-full numbers between
    consecutive kth powers (the one-sided law), cut to [0, P^l / l!]."""
    if l < 0:
        raise ValueError("l must be >= 0")
    e = _engine(k, digits)
    if l >= len(e.d):
        raise ValueError(f"l = {l} beyond computed range {len(e.d) - 1}")
    P = e.ps.p(1).hi()
    with mp.workdps(digits + 20):
        if method == "xi_alternating":
            d = e.d[l]
        elif method == "row_sum":
            if l > e.coeffs.n_max:
                raise ValueError("row_sum needs l within the coefficient range")
            d = _shift(e.coeffs.a.__getitem__, l, 0, e.coeffs.n_max - l, 1, P)
        else:
            raise ValueError(f"unknown method {method!r}")
        return _within_majorant(d, P, l)


def density_B(k: int, I: SubsetSpec, J: SubsetSpec,
              digits: int = DEFAULT_DIGITS) -> ErrorBoundedReal:
    """Density of integers whose left interval is hit by exactly the shapes
    of I, the right by exactly those of J, and nothing else hits; depends
    only on the union of I and J."""
    if I.k != k or J.k != k:
        raise ValueError("subset k mismatch")
    if I.key_set() & J.key_set():
        raise ValueError("I and J must be disjoint")
    out = constant_C(k, digits)
    with mp.workdps(digits + 20):
        for e in list(I.elements) + list(J.elements):
            lam = lambda_value(e, digits + 10)
            out = out * lam.reciprocal() / (1 - 2 * lam.reciprocal())
        return out


def normalization_check(k: int, digits: int = DEFAULT_DIGITS) -> ErrorBoundedReal:
    """sum over n of a_n 2^n, which must enclose 1 (total cell mass)."""
    e = _engine(k, digits)
    with mp.workdps(digits + 20):
        return _shift(e.coeffs.a.__getitem__, 0, 0, e.coeffs.n_max, 2, e.ps.p(1).hi())


def eval_F(k: int, z, digits: int = 15) -> ErrorBoundedReal:
    """The entire product F_k(z) = prod (1 + w/lam), w = z - 2, as an exact
    head times the exp of one geometric power-sum tail.

    The head is the finite product over the shapes lam <= Lam0, a cutoff
    above |w|; enumerate_lambda's boundary is exact, so every other shape
    exceeds Lam0.  The log of the rest is

        sum_{m>=1} (-1)^(m-1) w^m P_tail(m) / m,
        P_tail(m) = P_k(m) - sum_head lam^(-m),

    and P_tail(m+1) <= P_tail(m) / Lam0, so past m terms it is below
    P_tail(m+1) |w|^(m+1) / ((m+1) (1 - |w|/Lam0)).  The power sums' radius
    rides on |w|^m, so the depth M stops where that noise would reach the
    engine's digits; Lam0 is the cutoff at which M terms reach
    10^-(digits + 3), and the sum stops at the first term whose bound does.
    The head and the subtraction run at the power sums' own precision.  Near
    z = 2 the head is empty.  An argument whose head would pass _HEAD_CAP
    shapes raises ValueError.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    digits = max(digits, DEFAULT_DIGITS)
    ps = _engine(k, digits).ps
    w = mp.fsub(z, 2, exact=True)
    if not w:
        return ErrorBoundedReal.exact(1)
    ps_digits = int(-mp.log10(ps.p(1).radius))
    with mp.workdps(ps_digits + 10):
        aw = abs(w)
        target = mpf(10) ** (-digits - 3)
        M = ps.m_max - 1
        if aw > 1:
            M = min(M, int((ps_digits - digits - 4) / mp.log10(aw)))
        # a float cutoff, which enumerate_lambda and the bound read exactly
        lam0 = float(aw * max(2, (aw / target) ** (mpf(1) / max(M, 1))))
        # about lam0^(k/(k+1)) shapes lie below lam0
        if M < 1 or lam0 ** (k / (k + 1)) > _HEAD_CAP:
            raise ValueError(f"|z - 2| = {mp.nstr(aw, 3)} needs a head past {_HEAD_CAP} "
                             f"shapes at {ps_digits}-digit power sums")
        inv = [lambda_value(e, ps_digits + 2).reciprocal() for e in enumerate_lambda(k, lam0)]
        head = ErrorBoundedReal.exact(1)
        for r in inv:
            head = head * (1 + r * w)
        # the tail's log is -sum_m (-w)^m P_tail(m) / m; terms holds its
        # (P_tail(m), (-w)^m / m), and P_tail(m + 1) bounds the rest
        pows, up, terms = inv, ErrorBoundedReal.exact(1), []
        p_tail = ps.p(1) - dot((p, 1) for p in pows)
        for m in range(1, M + 1):
            up = up * -w
            terms.append((p_tail, up / m))
            pows = [p * r for p, r in zip(pows, inv)]
            p_tail = ps.p(m + 1) - dot((p, 1) for p in pows)
            bound = p_tail.hi() * aw ** (m + 1) / ((m + 1) * (1 - aw / lam0))
            if bound < target:
                break
        return head * (-dot(terms)).widened(bound).exp()


def build_table(k: int, L: int, method: str = "direct",
                digits: int = DEFAULT_DIGITS) -> DensityTable:
    """Cell densities for 0 <= l <= m <= L."""
    if L < 0:
        raise ValueError("L must be >= 0")
    entries = {}
    for l in range(L + 1):
        for m in range(l, L + 1):
            entries[(l, m)] = density_A(k, l, m, method, digits)
    return DensityTable(k, L, method, entries)
