import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import bernfrac, mp, mpf

from kfull import shapes, zetas
from kfull.arith import _prime_list
from kfull.zetas import prime_zeta, prime_zeta_tail, zeta


def test_zeta_closed_form_pi_squared_over_six():
    z = zeta(2, 25)
    with mp.workdps(40):
        assert z.contains(mp.pi**2 / 6)


def test_zeta_against_library():
    for s in (1.25, 1.5, 2, 3, 4.75, 7, 30, 80):
        z = zeta(s, 30)
        with mp.workdps(50):
            ref = mpmath.zeta(mpf(s))
            assert z.contains(ref), s


def test_zeta_radius_contract():
    for digits in (8, 15, 25):
        z = zeta(1.5, digits)
        assert z.radius <= mpf(10) ** (-digits) * z.value


def test_zeta_rejects_bad_s():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.3)


def test_zeta_ratio_c2(reference):
    with mp.workdps(40):
        c2 = zeta(1.5, 30) / zeta(3, 30)
        assert abs(c2.value - (mpf(reference["P_2(1)"]) + 1)) <= c2.radius + mpf("1e-29")
        assert abs(float(c2) - 2.173) < 1e-3


def test_prime_zeta_against_direct_sum(reference):
    primes = _prime_list(10**6)
    for s, digits in ((2, 25), (3, 20), (10, 20)):
        direct = math.fsum(p ** (-float(s)) for p in primes)
        tail = (10**6) ** (1 - s) / (s - 1)  # integral comparison over n > 1e6
        pz = prime_zeta(s, digits)
        assert abs(float(pz.value) - direct) <= tail + float(pz.radius) + 1e-12
    pz2 = prime_zeta(2, 28)
    with mp.workdps(40):
        assert abs(pz2.value - mpf(reference["prime_zeta(2)"])) <= pz2.radius + mpf("1e-27")


def test_prime_zeta_against_library():
    for s in (1.5, 2.5, 6, Fraction(4, 3), 30):
        pz = prime_zeta(s, 25)
        x = Fraction(s)
        with mp.workdps(40):
            assert pz.contains(mpmath.primezeta(mpf(x.numerator) / x.denominator)), s


def test_prime_zeta_large_s_dominated_by_two():
    pz = prime_zeta(60, 20)
    with mp.workdps(40):
        lead = mpf(2) ** (-60)
        assert abs(pz.value - lead) < lead * mpf("1e-4")


def test_prime_zeta_tail_matches_direct():
    primes = _prime_list(10**6)
    direct = math.fsum(p ** (-2.0) for p in primes if p > 100)
    tail = (10**6) ** (-1)
    t = prime_zeta_tail(2, 100, 25)
    assert abs(float(t.value) - direct) <= tail + float(t.radius) + 1e-12


@pytest.mark.parametrize("s", [Fraction(4, 3), Fraction(2), Fraction(30)])
def test_prime_zeta_tail_encloses_direct_sum(s):
    # primes 101..10^5 summed directly bound the tail from below; adding the
    # integral bound on n > 10^5 bounds it from above.  At s = 30 the whole
    # tail sits far below the 40-digit target.
    with mp.workdps(50):
        sm = mpf(s.numerator) / s.denominator
        direct = mp.fsum(mpf(p) ** (-sm) for p in _prime_list(10**5) if p > 100)
        rest = mpf(10) ** (5 * (1 - sm)) / (sm - 1)
        t = prime_zeta_tail(s, 100, 40)
        assert t.radius <= mpf(10) ** (-40)
        assert t.lo() <= direct + rest and direct <= t.hi()


def test_prime_zeta_rejects_bad_s():
    with pytest.raises(ValueError):
        prime_zeta(1.0)


# -- powers from the root table ------------------------------------------------

@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("digits", [15, 30, 60])
def test_zeta_table_route_encloses_library(q, digits):
    # s = m(k+j)/k style bases and the cascade's multiples n s
    for base in (Fraction(q + 1, q), Fraction(2 * q + 1, q), Fraction(7 * q + 3, q)):
        for n in (1, 2, 3, 6):
            s = n * base
            assert zetas._ratio(s) is not None
            z = zeta(s, digits)
            with mp.workdps(2 * digits):
                assert z.contains(mpmath.zeta(mpf(s.numerator) / s.denominator)), (s, digits)
            assert z.radius <= mpf(10) ** (-digits) * z.value, (s, digits)


def _reference_zeta(s, digits):
    """zeta with an exp/log power per term: the code the table replaced."""
    with mp.workdps(digits + 12):
        sm = mpf(s)
        target = mpf(10) ** (-digits)
        n_terms = max(8, int(mp.dps * 1.2))
        while True:
            out = _reference_em(sm, n_terms, target)
            if out is not None:
                return out
            n_terms *= 2


def _reference_em(s, N, target):
    acc = mpf(0)
    for n in range(1, N):
        acc += mpf(n) ** (-s)
    Npow = mpf(N) ** (-s)
    acc += Npow / 2 + Npow * N / (s - 1)
    rise = s
    prev = mp.inf
    j = 1
    while True:
        b = Fraction(*(int(x) for x in bernfrac(2 * j)))
        coeff = mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
        term = coeff * rise * (mpf(N) ** (1 - s - 2 * j))
        at = abs(term)
        if at >= prev:
            return None
        acc += term
        b2 = Fraction(*(int(x) for x in bernfrac(2 * j + 2)))
        rise_next = rise * (s + 2 * j - 1) * (s + 2 * j)
        bound = (
            abs(mpf(b2.numerator)) / b2.denominator / mp.factorial(2 * j + 2)
            * rise_next
            * (mpf(N) ** (1 - s - 2 * j - 2))
        )
        if bound < target * acc:
            slop = abs(acc) * mp.eps * (2 * N + 8 * j + 16)
            return acc, bound + slop
        prev = at
        rise = rise_next
        j += 1


@pytest.mark.parametrize("s", [1.1, 2.3])
def test_zeta_fallback_route_bit_identical(s):
    # a float is a dyadic rational with a large denominator: no root table
    assert zetas._ratio(s) is None
    value, radius = _reference_zeta(s, 30)
    z = zeta(s, 30)
    assert z.value._mpf_ == value._mpf_
    assert z.radius._mpf_ == radius._mpf_


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("prec", [64, 200, 650])
def test_root_table_encloses_library_roots(q, prec):
    roots = zetas._prime_roots(q, prec, 300)
    assert sorted(roots) == list(_prime_list(max(roots)))
    assert max(roots) >= 300
    for p, raw in roots.items():
        u = mp.make_mpf(raw)
        assert u.man.bit_length() <= prec
        with mp.workprec(2 * prec):
            exact = 1 / mp.root(p, q)
            assert abs(u - exact) <= u * mp.ldexp(1, 1 - prec), (p, q, prec)


def test_euler_factor_encloses_product():
    primes = zetas.primes_upto(100)
    for x in (Fraction(5, 4), Fraction(7, 3), Fraction(40, 1)):
        with mp.workdps(50):
            f = zetas._euler_factor(x.numerator, x.denominator, primes)
        with mp.workdps(120):
            xm = mpf(x.numerator) / x.denominator
            exact = mp.fprod(1 - mpf(p) ** (-xm) for p in primes)
            assert f.contains(exact), x
            assert f.radius <= f.value * mpf(10) ** (-48)


def _clear_every_cache():
    for fn in (zeta, prime_zeta, zetas._root_table, zetas._em_coeff,
               zetas._least_prime_factors, zetas._sieved_log_zeta, zetas._bern,
               shapes.power_sum_euler, _prime_list):
        fn.cache_clear()


def test_zeta_cold_equals_warm_after_other_tables():
    s = Fraction(7, 4)
    _clear_every_cache()
    cold = zeta(s, 40)
    _clear_every_cache()
    # fill tables at other precisions, denominators and limits first
    zeta(s, 15)
    zeta(Fraction(9, 4), 60)
    zeta(Fraction(5, 2), 40)
    prime_zeta(Fraction(5, 4), 30)
    shapes.power_sum_euler(4, 3, 40)
    zetas._prime_roots(4, 200, 1000)
    zeta.cache_clear()
    warm = zeta(s, 40)
    assert warm.value._mpf_ == cold.value._mpf_
    assert warm.radius._mpf_ == cold.radius._mpf_
