"""Asymptotic densities with tracked error bounds.

Everything reduces to three layers on top of the power sums P_k(m):

* xi_r, the elementary symmetric functions of the shape reciprocals 1/lam,
  recovered from the power sums by Newton's identities
  (r e_r = sum_{i=1..r} (-1)^(i-1) e_(r-i) p_i);

* the coefficient sequence a_n of the entire function
  F_k(z) = prod (1 + (z-2)/lam) = sum_r xi_r (z-2)^r = sum_n a_n z^n,
  via a_n = sum_{r>=n} C(r,n) (-2)^(r-n) xi_r;

* the densities themselves:
  - cells:      d(A[l,m]) = C(l+m, l) * a_(l+m)                (direct)
                          = sum_n (-1)^n trinom * d_(l+m+n)    (inversion)
                          = sum_n (-2)^n trinom * xi_(l+m+n)   (xi)
  - one-sided:  d_l = sum_n (-1)^n C(l+n, l) xi_(l+n)  (xi_alternating)
                    = sum_m d(A[l,m])                  (row_sum)
  - exclusion sets:  d(B[I,J]) = prod_(U) 1/lam * prod_(not U) (1 - 2/lam)
    with U = I union J, evaluated as C_k rescaled by the finitely many
    excluded factors; C_k = a_0.

All infinite sums are truncated with proven bounds folded into the radius:
xi_r <= P_k(1)^r / r! gives super-exponential decay, and every weighted
tail reduces to a ratio-bounded exponential remainder.  Every series keeps
the terms n..n + g past its leading index n, with one guard g per
(k, digits, p0): _engine picks it from that envelope and every route reads
it, so no caller can ask for another depth.  The depth matters for accuracy
as well as cost: too shallow leaves a tail the envelope cannot bound tightly,
and past the point where xi_r reaches the working-precision noise floor the
binomial weights amplify that noise, so deeper sums would be worse, not
better.  The tracked radii account for both effects honestly.

Every fixed linear sum above (Newton's identities, a_n, the xi and
inversion cells, the one-sided d_l, the row sums and the total mass) goes
through bounded.dot, which sums exactly and rounds once.  Its weights must
be exact Python ints, signs and powers of two included, such as
C(r,n) * (-2)^(r-n); a rounded weight such as 1/r stays outside the sum as
an ErrorBoundedReal multiply.  eval_F keeps its term-by-term loops,
because they stop early on the running radius.

The inversion route consumes one-sided densities that are themselves
produced by the xi route, so it is a consistency check of the published
inversion formula rather than an independent source.  Each one-sided density
is a memoised value of the engine (_one_sided): a table of cells reads each
d_j once instead of once per cell that needs it.  The memo is keyed by
(k, l, digits, p0) and not by the caller's precision; that is sound
because the sum runs at its own fixed precision digits + 20 over an engine
that is itself cached by the same key, so a cached value is bit-identical to
a fresh one whatever precision the caller holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from mpmath import mp, mpf

from .arith import shape_tuples
from .bounded import ErrorBoundedReal, dot
from .shapes import (
    DEFAULT_PRIME_CUTOFF,
    LambdaElement,
    PowerSums,
    lambda_min_radicand,
    lambda_value,
    power_sum_euler,
    power_sums,
    tail_bound,
)

DEFAULT_DIGITS = 30


@dataclass(frozen=True)
class XiSequence:
    """Elementary symmetric functions xi_0..xi_r_max of the 1/lam."""

    k: int
    xi: tuple

    @property
    def r_max(self) -> int:
        return len(self.xi) - 1


@dataclass(frozen=True)
class SeriesCoeffs:
    """Power-series coefficients a_0..a_n_max of F_k around 0; a_0 = C_k."""

    k: int
    a: tuple

    @property
    def n_max(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class SubsetSpec:
    """A finite set of shapes, given by exact tuples."""

    k: int
    elements: tuple

    def __post_init__(self):
        elems = tuple(
            e if isinstance(e, LambdaElement) else LambdaElement(self.k, tuple(e))
            for e in self.elements
        )
        object.__setattr__(self, "elements", elems)
        for e in elems:
            if e.k != self.k:
                raise ValueError("mixed k in subset")
        keys = [e.b for e in elems]
        if len(set(keys)) != len(keys):
            raise ValueError("subset elements must be distinct")

    def key_set(self) -> frozenset:
        return frozenset(e.b for e in self.elements)


@dataclass(frozen=True)
class DensityTable:
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


def xi_from_power_sums(ps: PowerSums, r_max: int) -> XiSequence:
    """Newton's identities; xi_0 = 1 exactly, radii propagated."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    if ps.m_max < r_max:
        raise ValueError(f"need P_k(1..{r_max}), have 1..{ps.m_max}")
    # signed[i] = (-1)^(i-1) p_i, negated once rather than once per r
    signed = [None] + [ps.p(i) if i % 2 else -ps.p(i) for i in range(1, r_max + 1)]
    out = [ErrorBoundedReal.exact(1)]
    for r in range(1, r_max + 1):
        acc = dot((out[r - i], signed[i]) for i in range(1, r + 1))
        out.append(acc * (mpf(1) / r))
    return XiSequence(ps.k, tuple(out))


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


def _exp_tail(x, T: int):
    """Upper bound (mpf) on sum_{t > T} x^t / t!, for x < T + 2."""
    x = mpf(x)
    if not x < T + 2:
        raise ValueError("guard too small for ratio bound")
    first = x ** (T + 1) / mp.factorial(T + 1)
    return first / (1 - x / (T + 2))


def coeffs_a(xi: XiSequence, n_max: int, guard: int,
             p1_hi=None, target=None) -> SeriesCoeffs:
    """a_n = sum_{r=n}^{n+guard} C(r,n) (-2)^(r-n) xi_r, truncation bounded by
    the xi_r <= P_k(1)^r / r! envelope.  p1_hi is an upper bound on P_k(1)
    (defaults to xi_1's upper endpoint, which equals P_k(1))."""
    if n_max < 0 or guard < 1:
        raise ValueError("need n_max >= 0, guard >= 1")
    if xi.r_max < n_max + guard:
        raise ValueError(f"xi computed to {xi.r_max}, need {n_max + guard}")
    P = mpf(p1_hi) if p1_hi is not None else xi.xi[1].hi()
    out = []
    for n in range(n_max + 1):
        acc = dot((xi.xi[r], comb(r, n) * (-2) ** (r - n))
                  for r in range(n, n + guard + 1))
        tail = P**n / mp.factorial(n) * _exp_tail(2 * P, guard)
        if target is not None and tail > mpf(target):
            raise ValueError(f"guard {guard} leaves truncation {tail} > {target}")
        out.append(acc.widened(tail))
    return SeriesCoeffs(xi.k, tuple(out))


@lru_cache(maxsize=8)
def _engine(k: int, digits: int, p0: int):
    """Shared computation bundle (power sums, xi, coefficients, guard g) and
    the only place that picks a series depth.

    g is the number of terms every series keeps past its leading index: at
    least 40, deepened in steps of 5 until the envelope tail
    sum_{t > g} (2 P_k(1))^t / t! falls below 1e-16.  The xi envelope
    P_k(1)^r / r! only starts decaying past r ~ P_k(1), so for larger k
    (where P grows) g scales up on its own: 40, 45 and 75 for k = 2, 3, 4.
    The coefficients run to n_max = max(44, g), and r_max = n_max + 2g so
    that the inversion route (one-sided densities up to index n_max + g,
    each g terms deep) stays inside the computed xi range.  The power sums
    gain digits to pay for the larger binomial weights the deeper sums incur.
    """
    two_p = 2 * float(power_sum_euler(k, 1, 15, p0).hi())
    g = max(40, int(two_p) + 4)
    try:
        while _float_exp_tail(two_p, g) > 1e-16 and g < 400:
            g += 5
    except OverflowError:
        # (2 P_k(1))^(g+1) leaves the float range long before an engine that
        # deep could finish, so the search stops here
        raise ArithmeticError(
            f"k = {k} is beyond the series engine: its truncation guard reached "
            f"g = {g} with the bound still above 1e-16") from None
    n_max = max(44, g)
    r_max = n_max + 2 * g
    # the binomial weights in the coefficient sums amplify absolute xi errors
    # by up to ~4^r, so the power sums run ~30 digits deeper than the target,
    # plus ~0.65 per unit of extra depth beyond the k in {2,3} calibration
    extra = max(0, int(0.65 * (r_max + n_max - 168)) + 1)
    with mp.workdps(digits + 40 + extra):
        ps = power_sums(k, r_max, digits + 30 + extra, p0)
        xi = xi_from_power_sums(ps, r_max)
        coeffs = coeffs_a(xi, n_max, g)
    return ps, xi, coeffs, g


def _float_exp_tail(x: float, T: int) -> float:
    if x >= T + 2:
        return float("inf")
    return x ** (T + 1) / factorial(T + 1) / (1 - x / (T + 2))


def series_coefficients(k: int, digits: int = DEFAULT_DIGITS,
                        p0: int = DEFAULT_PRIME_CUTOFF) -> SeriesCoeffs:
    return _engine(k, digits, p0)[2]


def constant_C(k: int, digits: int = DEFAULT_DIGITS,
               p0: int = DEFAULT_PRIME_CUTOFF) -> ErrorBoundedReal:
    """C_k = prod (1 - 2/lam) = F_k(0) = a_0: the no-hit density."""
    return series_coefficients(k, digits, p0).a[0]


def _trinom(l: int, m: int, n: int) -> int:
    return comb(l + m + n, l) * comb(m + n, m)


def density_A(k: int, l: int, m: int, method: str = "direct",
              digits: int = DEFAULT_DIGITS,
              p0: int = DEFAULT_PRIME_CUTOFF) -> ErrorBoundedReal:
    """Density of integers with exactly l proper k-full numbers in the left
    interval and m in the right one."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if l < 0 or m < 0:
        raise ValueError("l and m must be >= 0")
    ps, xi, coeffs, g = _engine(k, digits, p0)
    if l + m > coeffs.n_max:
        raise ValueError(f"l + m = {l + m} beyond computed range {coeffs.n_max}")
    with mp.workdps(digits + 20):
        if method == "direct":
            return coeffs.a[l + m] * mpf(comb(l + m, l))
        P = ps.p(1).hi()
        if method == "xi":
            acc = dot((xi.xi[l + m + n], _trinom(l, m, n) * (-2) ** n)
                      for n in range(g + 1))
            tail = P ** (l + m) / (mp.factorial(l) * mp.factorial(m)) * _exp_tail(2 * P, g)
            return acc.widened(tail)
        if method == "inversion":
            acc = dot((_one_sided(k, l + m + n, digits, p0),
                       (-1) ** n * _trinom(l, m, n)) for n in range(g + 1))
            # |d_j| <= e^P P^j / j! makes the alternating sum tail exponential
            tail = (
                mp.exp(P) * P ** (l + m)
                / (mp.factorial(l) * mp.factorial(m))
                * _exp_tail(P, g)
            )
            return acc.widened(tail)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=4096)
def _one_sided(k: int, l: int, digits: int, p0: int) -> ErrorBoundedReal:
    """d_l = sum_n (-1)^n C(l+n, l) xi_(l+n), truncated after g + 1 terms;
    the caller checks that l + g stays inside the engine's xi range."""
    ps, xi, _, g = _engine(k, digits, p0)
    with mp.workdps(digits + 20):
        acc = dot((xi.xi[l + n], (-1) ** n * comb(l + n, l)) for n in range(g + 1))
        P = ps.p(1).hi()
        return acc.widened(P**l / mp.factorial(l) * _exp_tail(P, g))


def density_shiu(k: int, l: int, method: str = "xi_alternating",
                 digits: int = DEFAULT_DIGITS,
                 p0: int = DEFAULT_PRIME_CUTOFF) -> ErrorBoundedReal:
    """Density of integers with exactly l proper k-full numbers between
    consecutive kth powers (the one-sided law)."""
    if l < 0:
        raise ValueError("l must be >= 0")
    ps, xi, coeffs, g = _engine(k, digits, p0)
    if l > xi.r_max - g:
        raise ValueError(f"l = {l} beyond computed range {xi.r_max - g}")
    if method == "xi_alternating":
        return _one_sided(k, l, digits, p0)
    with mp.workdps(digits + 20):
        P = ps.p(1).hi()
        if method == "row_sum":
            if l > coeffs.n_max:
                raise ValueError("row_sum needs l within the coefficient range")
            M = coeffs.n_max - l
            acc = dot((coeffs.a[l + m], comb(l + m, l)) for m in range(M + 1))
            tail = P**l / mp.factorial(l) * _exp_tail(P, M)
            return acc.widened(tail)
    raise ValueError(f"unknown method {method!r}")


def density_B(k: int, I: SubsetSpec, J: SubsetSpec, digits: int = DEFAULT_DIGITS,
              p0: int = DEFAULT_PRIME_CUTOFF) -> ErrorBoundedReal:
    """Density of integers whose left interval is hit by exactly the shapes
    of I, the right by exactly those of J, and nothing else hits; depends
    only on the union of I and J."""
    if I.k != k or J.k != k:
        raise ValueError("subset k mismatch")
    if I.key_set() & J.key_set():
        raise ValueError("I and J must be disjoint")
    out = constant_C(k, digits, p0)
    with mp.workdps(digits + 20):
        for e in list(I.elements) + list(J.elements):
            lam = lambda_value(e, digits + 10)
            out = out * lam.reciprocal() / (1 - 2 * lam.reciprocal())
        return out


def normalization_check(k: int, digits: int = DEFAULT_DIGITS,
                        p0: int = DEFAULT_PRIME_CUTOFF) -> ErrorBoundedReal:
    """sum over n of a_n 2^n, which must enclose 1 (total cell mass)."""
    ps, _, coeffs, _ = _engine(k, digits, p0)
    with mp.workdps(digits + 20):
        acc = dot((coeffs.a[n], 1 << n) for n in range(coeffs.n_max + 1))
        P = ps.p(1).hi()
        return acc.widened(_exp_tail(2 * P, coeffs.n_max))


def eval_F(k: int, z, digits: int = 15, p0: int = DEFAULT_PRIME_CUTOFF) -> ErrorBoundedReal:
    """The entire product F_k(z) = prod (1 + (z-2)/lam).

    Near the expansion center (|z-2| at most 0.8 lam_min) the logarithmic
    series in the power sums converges geometrically; beyond that the xi
    series (factorial decay, valid everywhere) takes over.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ps, xi, _, _ = _engine(k, max(digits, DEFAULT_DIGITS), p0)
    with mp.workdps(digits + 20):
        w = mpf(z) - 2
        lam_min = mp.root(mpf(lambda_min_radicand(k)), k)
        target = mpf(10) ** (-digits - 2)
        if abs(w) <= mpf("0.8") * lam_min:
            if w == 0:
                return ErrorBoundedReal.exact(1)
            acc = ErrorBoundedReal.exact(0)
            ratio = abs(w) / lam_min
            M = ps.m_max
            for m in range(1, M + 1):
                term = ps.p(m) * (w**m / m)
                acc = acc + term if m % 2 == 1 else acc - term
                tail = ps.p(m + 1).hi() * abs(w) ** (m + 1) / ((m + 1) * (1 - ratio)) if m < M else None
                if tail is not None and tail < target:
                    return acc.widened(tail).exp()
            tail = ps.p(M).hi() / lam_min * abs(w) ** (M + 1) / ((M + 1) * (1 - ratio))
            return acc.widened(tail).exp()
        P = ps.p(1).hi()
        x = P * abs(w)
        if x < xi.r_max - 6:
            # adaptive cut: past the needed depth the w^r weights amplify the
            # noise in the high-order xi values, so deeper is worse, not better
            acc = ErrorBoundedReal.exact(0)
            for r in range(xi.r_max + 1):
                acc = acc + xi.xi[r] * w**r
                if x < r + 2:
                    tail = _exp_tail(x, r)
                    if tail < target or tail < acc.radius / 4:
                        return acc.widened(tail)
            return acc.widened(_exp_tail(x, xi.r_max))
        return _eval_F_product(k, w, digits)


def _eval_F_product(k: int, w, digits: int) -> ErrorBoundedReal:
    """Fallback for arguments beyond the series depth: exact product over a
    coordinate box of shapes, times a bracket for the omitted factors.  The
    achievable radius degrades with |w| (the omitted mass shrinks only like
    a power of the box side), and the returned radius says so honestly."""
    # the box must keep every omitted shape above 2|w| so the omitted
    # log-factors are dominated; then widen until the tail bound stops paying
    B_floor = max(64, int((2 * abs(w)) ** (mpf(k) / (k + 1))) + 1)
    B_cap = max(B_floor, int(200_000 ** (1.0 / (k - 1))))
    B = min(B_floor * 16, B_cap)
    prod = ErrorBoundedReal.exact(1)
    for M, _ in shape_tuples(k, box=B)[1:]:  # [0] is the trivial tuple, M = 1
        lam = mp.root(mpf(M), k)
        lam_e = ErrorBoundedReal(lam, lam * mp.eps * 8)
        prod = prod * (1 + w / lam_e)
    lam_min_omitted = mpf(B + 1) ** (mpf(k + 1) / k)
    kappa = 1 / (1 - abs(w) / lam_min_omitted)
    tail_log = kappa * abs(w) * tail_bound(k, 1, B)
    lo_f, hi_f = mp.exp(-tail_log), mp.exp(tail_log)
    bracket = ErrorBoundedReal((lo_f + hi_f) / 2, (hi_f - lo_f) / 2 + mp.eps * hi_f * 4)
    return prod * bracket


def build_table(k: int, L: int, method: str = "direct",
                digits: int = DEFAULT_DIGITS,
                p0: int = DEFAULT_PRIME_CUTOFF) -> DensityTable:
    """Cell densities for 0 <= l <= m <= L."""
    if L < 0:
        raise ValueError("L must be >= 0")
    entries = {}
    for l in range(L + 1):
        for m in range(l, L + 1):
            entries[(l, m)] = density_A(k, l, m, method, digits, p0)
    return DensityTable(k, L, method, entries)
