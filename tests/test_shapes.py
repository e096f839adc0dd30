from fractions import Fraction
from itertools import product
from math import fsum, gcd, log

import mpmath
import pytest
from mpmath import mp, mpf

from kfull import arith, shapes, zetas
from kfull.arith import introot, is_squarefree, mobius_sieve, moebius, next_prime, shape_tuples
from kfull.bounded import ErrorBoundedReal
from kfull.shapes import (
    _T_CAP,
    LambdaElement,
    _box_sum_k3,
    _exact_product,
    _log_coeffs,
    _witt_exponents,
    enumerate_lambda,
    lambda_min_radicand,
    lambda_value,
    power_sum_direct,
    power_sum_euler,
    power_sums,
    tail_bound,
)
from kfull.zetas import primes_upto, zeta


def test_element_validation():
    LambdaElement(2, (2,))
    with pytest.raises(ValueError):
        LambdaElement(2, (1,))  # product < 2
    with pytest.raises(ValueError):
        LambdaElement(2, (4,))  # not squarefree
    with pytest.raises(ValueError):
        LambdaElement(3, (2, 2))  # product 4 not squarefree
    with pytest.raises(ValueError):
        LambdaElement(3, (2,))  # wrong length
    with pytest.raises(ValueError):
        LambdaElement(1, ())


def test_enumerate_k2_examples():
    elems = enumerate_lambda(2, 30)
    assert [e.b for e in elems] == [(2,), (3,), (5,), (6,), (7,)]
    vals = [float(lambda_value(e, 16)) for e in elems]
    expected = [2.82843, 5.19615, 11.18034, 14.69694, 18.52026]
    assert all(abs(a - b) < 1e-4 for a, b in zip(vals, expected))
    assert enumerate_lambda(2, 2.5) == []


def test_enumerate_k3_example():
    elems = enumerate_lambda(3, 7)
    assert [e.b for e in elems] == [(2, 1), (1, 2), (3, 1), (1, 3)]
    vals = [float(lambda_value(e, 16)) for e in elems]
    expected = [2.51984, 3.17480, 4.32675, 6.24025]
    assert all(abs(a - b) < 1e-4 for a, b in zip(vals, expected))


def test_boundary_behaviour():
    # lam_1 = sqrt(8) = 2.828427...; the cut must land on the right side
    assert [e.b for e in enumerate_lambda(2, 2.829)] == [(2,)]
    assert enumerate_lambda(2, 2.828) == []


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ordering_and_minimum(k):
    elems = enumerate_lambda(k, 40)
    rads = [e.radicand() for e in elems]
    assert rads == sorted(rads) and len(set(rads)) == len(rads)
    assert rads[0] == lambda_min_radicand(k) == 2 ** (k + 1)
    assert elems[0].b == (2,) + (1,) * (k - 2)


def test_brute_force_filter_agreement():
    # every admissible tuple with coordinates <= 20 must appear
    bound = 60.0
    X = int(Fraction(bound) ** 3)
    mine = {e.b for e in enumerate_lambda(3, bound) if max(e.b) <= 20}
    brute = set()
    for b1, b2 in product(range(1, 21), repeat=2):
        prod = b1 * b2
        if prod < 2 or not is_squarefree(prod):
            continue
        if b1**4 * b2**5 <= X:
            brute.add((b1, b2))
    assert mine == brute


def test_cap_enforced():
    with pytest.raises(ValueError):
        enumerate_lambda(2, 10**6, cap=10)


def test_cap_is_exact_at_its_boundary():
    # k = 3, lambda <= 20: the radicands up to 20^3 hold n non-trivial shapes
    n = len(shape_tuples(3, 20**3)) - 1
    assert len(enumerate_lambda(3, 20, cap=n)) == n
    with pytest.raises(ValueError, match="cap"):
        enumerate_lambda(3, 20, cap=n - 1)


def test_cap_refuses_before_the_sieve(monkeypatch):
    # lambda <= 1e12 at k = 2 has about 6e7 shapes; the squarefree bound
    # alone refuses them, so no sieve or tuple list is built
    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} built")

    monkeypatch.setattr(arith, "squarefree_sieve", no_sieve)
    with pytest.raises(ValueError, match="cap"):
        enumerate_lambda(2, 10**12, cap=10**6)


def test_cap_stops_the_walk():
    # k = 5 has few single-coordinate shapes but many others: the bound lets
    # the walk start, and the walk itself refuses past cap + 1 shapes
    X = 10**15
    n = len(shape_tuples(5, X)) - 1
    assert 54 * introot(X, 6) // 100 - 1 <= 200 < n
    with pytest.raises(ValueError, match="cap 200"):
        arith._shape_walk(5, X, None, 200)
    assert arith._shape_walk(5, X, None, n) == shape_tuples(5, X)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumerate_lambda_bound_below_the_smallest_shape(k):
    # a negative bound must not square into a positive limit for even k
    for bound in (-5, -2.83, 0, Fraction(-10**9)):
        assert enumerate_lambda(k, bound) == []
    for bound in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"bound must be finite, got {bound}"):
            enumerate_lambda(k, bound)


def test_lambda_value_radius_contract():
    e = LambdaElement(2, (2,))
    for digits in (15, 25, 40):
        v = lambda_value(e, digits)
        assert v.radius <= mpf(10) ** (-digits) * v.value
    with mp.workdps(40):
        assert lambda_value(e, 30).contains(mp.sqrt(8))
        assert lambda_value(LambdaElement(3, (2, 1)), 30).contains(mp.root(16, 3))


def test_tail_bound_values_and_monotonicity():
    assert float(tail_bound(2, 1, 10**4)) <= 0.02 + 1e-12
    # the m = 2 tail: integral comparison gives B^(-2)/2 = 5e-9 at B = 1e4
    assert float(tail_bound(2, 2, 10**4)) <= 5.1e-9
    prev = None
    for B in (10**2, 10**3, 10**4, 10**5):
        t = float(tail_bound(3, 1, B))
        if prev is not None:
            assert t < prev
        prev = t
    assert float(tail_bound(2, 1, 10**9)) < 1e-4


def test_box_sum_k3_matches_brute_force():
    m, B = 2, 40
    brute = 0.0
    for b1, b2 in product(range(1, B + 1), repeat=2):
        if (b1, b2) == (1, 1):
            continue
        if is_squarefree(b1 * b2) and gcd(b1, b2) == 1:
            brute += b1 ** (-8.0 / 3.0) * b2 ** (-10.0 / 3.0)
    assert abs(_box_sum_k3(m, B) - brute) < 1e-12


def box_sum_per_m(k, m, B):
    """The box sum walked afresh for one m: a squarefree sieve at k = 2, a
    slice per squarefree d at k = 3, the tuples of the walker at k >= 4."""
    if k == 2:
        return fsum(b ** (-1.5 * m) for b in range(2, B + 1) if is_squarefree(b))
    if k == 3:
        mu = [0] + [moebius(d) for d in range(1, B + 1)]
        f = [0.0] + [b ** (-4.0 * m / 3.0) if mu[b] else 0.0 for b in range(1, B + 1)]
        g = [0.0] + [b ** (-5.0 * m / 3.0) if mu[b] else 0.0 for b in range(1, B + 1)]
        return fsum(mu[d] * fsum(f[d::d]) * fsum(g[d::d]) for d in range(1, B + 1)) - 1.0
    terms = []
    for M, b in shape_tuples(k, box=B):
        if M > 1:
            w = 1.0
            for j, bj in enumerate(b, start=1):
                w *= bj ** (-(m * (k + j) / k))
            terms.append(w)
    return fsum(terms)


@pytest.mark.parametrize("k, B, work", [(2, 500, 500), (3, 300, 300 * (log(300) + 1)),
                                        (4, 25, 25**3)])
def test_box_sums_match_the_per_m_walk(k, B, work):
    # one cached box serves every m; each value stays within the float
    # envelope power_sum_direct adds to its radius
    envelope = (int(work) + 16) * 2.3e-16 * 8
    for m in range(1, 9):
        d = power_sum_direct(k, m, B)
        assert abs(float(d.value) - box_sum_per_m(k, m, B)) <= envelope, (k, m)
        assert float(d.radius) >= envelope


def test_direct_examples():
    d = power_sum_direct(2, 1, 10**6)
    assert abs(float(d.value) - 1.1733) < 2.5e-3
    assert float(d.radius) <= 2.1e-3
    e = power_sum_euler(2, 3, 25)
    d = power_sum_direct(2, 3, 100)
    assert d.agrees_with(e)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("B", [10**3, 10**4])
def test_route_agreement(k, B):
    for m in range(1, 9):
        d = power_sum_direct(k, m, B)
        e = power_sum_euler(k, m, 30)
        assert d.agrees_with(e), (k, m, B)


@pytest.mark.parametrize("k, B", [(4, 100), (5, 30)])
@pytest.mark.parametrize("m", [2, 3])
def test_route_agreement_generic_box(k, B, m):
    # k >= 4 sums the box tuples of the shape walker
    d = power_sum_direct(k, m, B)
    assert d.agrees_with(power_sum_euler(k, m, 30)), (k, m, B)


def test_tail_bounds_honest_when_doubling():
    for k in (2, 3):
        for m in (1, 2):
            base = power_sum_direct(k, m, 1000)
            finer = power_sum_direct(k, m, 2000)
            assert base.lo() <= finer.value <= base.hi(), (k, m)


def test_k2_closed_form():
    with mp.workdps(45):
        for m in range(1, 11):
            e = power_sum_euler(2, m, 30)
            cf = zeta(Fraction(3 * m, 2), 35) / zeta(3 * m, 35) - 1
            assert e.agrees_with(cf), m


def test_euler_large_m_needs_no_zeta():
    # for large m the Witt cut's proven bound is below target at once, so
    # no sieved log-zeta, and hence no zeta value, is computed
    before = zeta.cache_info().misses
    e = power_sum_euler.__wrapped__(2, 100, 60)
    assert zeta.cache_info().misses == before
    assert e.radius <= mpf(10) ** (-60)
    with mp.workdps(140):
        assert e.contains(mpmath.zeta(150) / mpmath.zeta(300) - 1)


def test_euler_large_m_makes_no_log1p_or_expm1(monkeypatch):
    # with no Lambda term the enclosure comes straight from the exact
    # product, S <= P <= (1 + S) e^x - 1, with no log1p/expm1 round trip
    def refuse(self):
        raise AssertionError("log1p or expm1 called")

    monkeypatch.setattr(ErrorBoundedReal, "log1p", refuse)
    monkeypatch.setattr(ErrorBoundedReal, "expm1", refuse)
    for k, m, digits in [(2, 30, 61), (2, 100, 61), (3, 40, 68), (3, 135, 68)]:
        e = power_sum_euler.__wrapped__(k, m, digits)
        assert e.radius <= mpf(10) ** (-digits)
        assert e.agrees_with(power_sum_direct(k, m, 50)), (k, m)
    with mp.workdps(140):
        assert power_sum_euler.__wrapped__(2, 30, 61).contains(
            mpmath.zeta(45) / mpmath.zeta(90) - 1)


def test_euler_reads_no_prime_zeta_tail(monkeypatch):
    def refuse(*args):
        raise AssertionError("prime_zeta_tail called")

    monkeypatch.setattr(zetas, "prime_zeta_tail", refuse)
    monkeypatch.setattr(shapes, "prime_zeta_tail", refuse, raising=False)
    for k, m, digits, p0 in [(2, 1, 61, 100), (3, 1, 68, 100), (3, 2, 68, 3), (4, 1, 40, 100)]:
        e = power_sum_euler.__wrapped__(k, m, digits, p0)
        assert e.radius <= mpf(10) ** (-digits)


@pytest.mark.parametrize("k", range(2, 9))
def test_witt_exponents_match_log_coeffs(k):
    # log(1 + g) = sum_n a_n (-log(1 - y^n)) with integer a_n, where n a_n is
    # the Moebius inversion of t c_t over the divisors of n
    a = _witt_exponents(k, _T_CAP)
    c = _log_coeffs(k, _T_CAP)[0]
    mu = mobius_sieve(_T_CAP)
    assert len(a) == _T_CAP + 1 and all(type(x) is int for x in a)
    for n in range(1, _T_CAP + 1):
        assert a[n] == sum(mu[n // d] * d * c[d] for d in range(1, n + 1) if n % d == 0) / n
    if k == 2:
        # log(1 + y^3) = -log(1 - y^3) + log(1 - y^6)
        assert {n: x for n, x in enumerate(a) if x} == {3: 1, 6: -1}


def test_power_sums_share_lambda_entries(monkeypatch):
    # Lambda(j/k) is read to digits that depend on j alone, so P_3(2) finds
    # in the cache every Lambda P_3(1) computed at the same x
    reads = {1: set(), 2: set()}
    lam = shapes._sieved_log_zeta
    for m in (1, 2):
        monkeypatch.setattr(shapes, "_sieved_log_zeta",
                            lambda x, p0, d, m=m: reads[m].add((x, p0, d)) or lam(x, p0, d))
        power_sum_euler.__wrapped__(3, m, 68)
    shared = {x for x, _, _ in reads[1]} & {x for x, _, _ in reads[2]}
    assert len(shared) >= 10
    assert {r for r in reads[2] if r[0] in shared} <= reads[1]


@pytest.mark.parametrize("p0", [1, 2, 3, 100])
@pytest.mark.parametrize("k, digits", [(2, 61), (3, 68), (4, 40)])
def test_euler_radius_contract_at_every_cutoff(k, digits, p0):
    for m in (1, 2, 3, 8, 20, 40):
        e = power_sum_euler(k, m, digits, p0)
        assert e.radius <= mpf(10) ** (-digits), m
        assert e.agrees_with(power_sum_euler(k, m, digits)), m


def test_euler_radius_contract_and_reference(reference):
    for key, (k, m) in {"P_2(1)": (2, 1), "P_2(8)": (2, 8),
                        "P_3(1)": (3, 1), "P_3(8)": (3, 8)}.items():
        e = power_sum_euler(k, m, 30)
        assert e.radius <= mpf(10) ** (-30)
        with mp.workdps(45):
            assert abs(e.value - mpf(reference[key])) <= e.radius + mpf("1e-28")


def test_euler_certifies_at_a_small_prime_cutoff():
    # past p0 = 3 the Witt exponents a_n of P_3(1) grow large; each sieved
    # log-zeta is read with as many more digits as its largest |a_d| has
    e = power_sum_euler(3, 1, 68, 3)
    assert e.radius <= mpf(10) ** (-68)
    assert e.agrees_with(power_sum_euler(3, 1, 68))


def test_euler_certifies_k4_in_one_pass(monkeypatch):
    calls = []
    exact = shapes._exact_product

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(shapes, "_exact_product", counted)
    power_sum_euler.cache_clear()
    e = power_sum_euler(4, 1, 146, 100)
    assert len(calls) == 1
    assert e.radius <= mpf(10) ** (-146)


def test_euler_radius_postcondition_names_its_cause(monkeypatch):
    # P_2(1) reads sieved log-zetas; each one 1e-50 wide swamps 60 digits
    lam = shapes._sieved_log_zeta
    monkeypatch.setattr(shapes, "_sieved_log_zeta",
                        lambda x, p0, digits: lam(x, p0, digits).widened(mpf(10) ** -50))
    with pytest.raises(ArithmeticError, match=r"^could not certify P_2\(1\) to 60 digits: "
                                              r"radius [0-9.]+e-\d+ > 1e-60$"):
        power_sum_euler.__wrapped__(2, 1, 60)


def test_witt_cut_cap_names_its_cause(monkeypatch):
    # at the default cutoff p0 is never raised for the cut, so a cap below
    # the cut P_3(1) needs (N = 130 at 68 digits) stops it
    monkeypatch.setattr(shapes, "_T_CAP", 20)
    monkeypatch.setattr(shapes, "_LOG_TABLES", {})
    with pytest.raises(ArithmeticError, match=r"^could not certify P_3\(1\) to 68 digits: "
                                              r"Witt cut reached t = 20$"):
        power_sum_euler.__wrapped__(3, 1, 68)


@pytest.mark.parametrize("k, digits", [(2, 61), (3, 68), (4, 146)])
def test_cut_estimate_keeps_every_certifying_cutoff(k, digits):
    # wherever the cut at the cutoff g(y) <= 1/2 picks fits under _T_CAP, the
    # estimate asks for no larger cutoff, so those results keep their bytes
    for m in (1, 2, 3, 5, 8):
        p0 = 2
        for _ in range(30):
            q = next_prime(p0)
            with mp.workdps(digits + 15):
                y = mpf(q) ** (-mpf(m) / k)
                if sum(y ** (k + j) for j in range(1, k)) <= mpf("0.5"):
                    if _cut_needed(k, m, q, y, digits) <= _T_CAP:
                        assert shapes._cut_estimate(k, m, q, digits) <= _T_CAP, (m, q)
            p0 = q


def _cut_needed(k, m, q, y, digits):
    # the Witt cut of power_sum_euler, on its own: the first M whose bound on
    # the terms past it meets the cut's limit, or _T_CAP + 1
    limit = mpf(10) ** (-(digits + shapes._CUT_DIGITS - 3))
    rho = shapes._convergence_radius(k) * (1 - 2.0**-20)
    h_sum, w, y_M, rho_M = mpf(0), [], y**k, rho**k
    for M in range(k + 1, _T_CAP + 1):
        y_M, rho_M = y_M * y, rho_M * rho
        h = _log_coeffs(k, M)[1]
        h_M = mpf(h[M].numerator) / h[M].denominator
        h_sum += h_M
        w.append(h_M * rho_M)
        if M >= 2 * k - 1:
            R = (max(w[-(2 * k - 1):]) * y_M * y / (rho_M * rho) / (1 - y / rho)
                 + y_M * y * h_sum / 2) / (1 - y)
            if R * (1 + q / (mpf(m * (M + 1)) / k - 1)) * mpf("1.000001") < limit:
                return M
    return _T_CAP + 1


def test_power_sums_invariants():
    for k in (2, 3):
        ps = power_sums(k, 10, 25)
        vals = [float(ps.p(m)) for m in range(1, 11)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
        with mp.workdps(35):
            prodzeta = mpf(1)
            for j in range(1, k):
                prodzeta *= zeta(Fraction(k + j, k), 25).lo()
            assert ps.p(1).hi() < prodzeta  # convergence bound, strict
    with pytest.raises(ValueError):
        ps.p(11)
    with pytest.raises(ValueError):
        ps.p(0)


def test_euler_rejects_bad_args():
    with pytest.raises(ValueError):
        power_sum_euler(1, 1)
    with pytest.raises(ValueError):
        power_sum_euler(2, 0)
    with pytest.raises(ValueError):
        power_sum_direct(2, 1, 1)


@pytest.mark.parametrize("k, box", [(2, 10_000), (3, 10_000), (4, 215), (5, 56)])
def test_default_box_is_the_largest_direct_sum_accepts(k, box):
    assert shapes.default_box(k) == box
    if k >= 4:  # one more refuses before any tuple is walked
        with pytest.raises(ValueError, match="box too large for exhaustive"):
            power_sum_direct(k, 1, box + 1)


# (r_max, power-sum digits) of the series engine at its default 30 digits
ENGINE_POWER_SUMS = {2: (124, 61), 3: (135, 68)}


def test_k2_engine_power_sums_contain_closed_form():
    r_max, d = ENGINE_POWER_SUMS[2]
    ps = power_sums(2, r_max, d)
    with mp.workdps(2 * d):
        for m in range(1, r_max + 1):
            exact = mpmath.zeta(mpf(3 * m) / 2) / mpmath.zeta(3 * m) - 1
            assert ps.p(m).contains(exact), m


@pytest.mark.parametrize("k, digits, B", [(3, ENGINE_POWER_SUMS[3][1], 10**4), (4, 30, 60)])
def test_euler_overlaps_direct_for_k3_k4(k, digits, B):
    for m in range(1, 9):
        assert power_sum_euler(k, m, digits).agrees_with(power_sum_direct(k, m, B)), (k, m)


# radii of the engine's P_k(m) when the exact primes entered through one
# interval log1p per prime; the counted product per m may only shrink them
LOG1P_CHAIN_RADII = {
    (2, 1): "2.7151913911492357e-70", (2, 2): "1.7283376510240657e-72",
    (2, 10): "3.8338808672770766e-75", (2, 60): "4.366638822541162e-77",
    (2, 124): "9.003627004323847e-90",
    (3, 1): "1.3938395571070134e-73", (3, 2): "1.6010449496276807e-76",
    (3, 10): "2.0628554654137955e-80", (3, 60): "2.4409379647896116e-84",
    (3, 135): "6.563644086152085e-87",
}


def test_engine_power_sum_radii_never_grew():
    for (k, m), old in LOG1P_CHAIN_RADII.items():
        e = power_sum_euler(k, m, ENGINE_POWER_SUMS[k][1])
        assert float(e.radius) <= float(old), (k, m)


def _exact_log_product(k, m, primes):
    # sum_p log1p(s_p) at the caller's precision, every s_p taken exactly
    return mp.fsum(mp.log1p(mp.fsum(mpf(p) ** (-mpf(m * (k + j)) / k) for j in range(1, k)))
                   for p in primes)


@pytest.mark.parametrize("k, m", [(2, 1), (2, 60), (2, 124), (3, 1), (3, 10), (3, 100),
                                  (4, 2)])
def test_exact_product_encloses_product(k, m):
    primes = primes_upto(100)
    with mp.workdps(60):
        S, dropped = _exact_product(k, m, primes, mpf(0))
    assert dropped == 0
    with mp.workdps(400):
        exact = mp.expm1(_exact_log_product(k, m, primes))
        assert S.contains(exact), (k, m)
        assert S.radius <= S.value * mpf(10) ** (-58)


def test_exact_product_drops_below_floor():
    # p^(-90) is below 1e-72 from p = 7 on: 2, 3, 5 stay in the product and
    # the rest enter dropped, which bounds their log1p sum from above
    primes = primes_upto(100)
    with mp.workdps(60):
        S, dropped = _exact_product(2, 60, primes, mpf(10) ** (-72))
    with mp.workdps(400):
        assert S.contains(mp.expm1(_exact_log_product(2, 60, primes[:3])))
        rest = _exact_log_product(2, 60, primes[3:])
        assert rest <= dropped * mpf("1.000001")
        assert dropped <= rest * (1 + mpf(10) ** (-50))


def _log_coeffs_every_u(k, T):
    # the recurrence over every u < t, skipping the orders where g is zero
    support = set(range(k + 1, 2 * k))
    c = [Fraction(0)] * (T + 1)
    h = [Fraction(0)] * (T + 1)
    for t in range(1, T + 1):
        sc = sh = Fraction(1 if t in support else 0)
        for u in range(1, t):
            if (t - u) in support:
                sc -= Fraction(u, t) * c[u]
                sh += Fraction(u, t) * h[u]
        c[t], h[t] = sc, sh
    return c, h


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_log_coeffs_match_recurrence_over_every_u(k):
    c, h = _log_coeffs(k, _T_CAP)
    assert (c, h) == _log_coeffs_every_u(k, _T_CAP)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_log_coeffs_grow_on_demand(monkeypatch, k):
    monkeypatch.setattr(shapes, "_LOG_TABLES", {})
    whole = tuple(list(x) for x in _log_coeffs(k, _T_CAP))
    # asking for 64 builds at most twice that; the entries read then stay
    # as they are while the table grows to _T_CAP
    monkeypatch.setattr(shapes, "_LOG_TABLES", {})
    c, h = _log_coeffs(k, 64)
    assert 65 <= len(c) <= 129
    first = (c[:65], h[:65])
    c, h = _log_coeffs(k, _T_CAP)
    assert (c, h) == whole and (c[:65], h[:65]) == first
