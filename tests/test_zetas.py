import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

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
