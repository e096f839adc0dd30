import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from kfull import shapes, zetas
from kfull.arith import _prime_list, introot
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


# -- powers from the stepped tables --------------------------------------------

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


# -- every other real s: one mpf power per prime -----------------------------

with mp.workdps(40):
    E40 = +mp.e  # e to 40 digits: a dyadic rational with a 136-bit numerator

UNSERVED = [1.1, 2.3, 1.0001, 4100.5, E40]


@pytest.mark.parametrize("digits", [15, 30, 60])
@pytest.mark.parametrize("s", UNSERVED, ids=["1.1", "2.3", "1.0001", "4100.5", "e40"])
def test_zeta_any_real_s_encloses_library(s, digits):
    # a float or an mpf is a dyadic rational whose numerator or denominator
    # is past the stepped tables
    assert zetas._ratio(s) is None
    z = zeta(s, digits)
    with mp.workdps(2 * digits):
        assert z.contains(mpmath.zeta(s)), (s, digits)
    assert z.radius <= mpf(10) ** (-digits) * z.value, (s, digits)


def test_prime_zeta_tail_at_an_unserved_s():
    t = prime_zeta_tail(1.1, 100, 20)
    assert t.radius <= mpf(10) ** (-20)
    with mp.workdps(40):
        s = mpf(1.1)
        ref = mpmath.primezeta(s) - mp.fsum(mpf(p) ** (-s) for p in _prime_list(100))
        assert t.contains(ref)


def test_zeta_unserved_s_cold_equals_warm():
    s = 1.1
    _clear_every_cache()
    cold = zeta(s, 40)
    _clear_every_cache()
    zeta(s, 15)
    zeta(2.3, 40)
    prime_zeta_tail(s, 100, 20)
    zetas._powers_upto(Fraction(s), 3000, zetas._fraction_bits(200))
    zeta.cache_clear()
    warm = zeta(s, 40)
    assert warm.value._mpf_ == cold.value._mpf_
    assert warm.radius._mpf_ == cold.radius._mpf_


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 64])
@pytest.mark.parametrize("prec", [64, 200, 650])
def test_root_table_encloses_library_roots(q, prec):
    F = zetas._fraction_bits(prec)
    assert F % 64 == 0 and F >= prec + zetas._GUARD_BITS + 32
    steps = zetas._steps(q, F)
    for p in _prime_list(300):
        r = steps.root(p)
        assert r.bit_length() <= F
        with mp.workprec(2 * F):
            u = mp.ldexp(r, -F)
            exact = 1 / mp.root(p, q)
            assert abs(u - exact) <= u * mp.ldexp(1, 1 - prec), (p, q, prec)
            # each root is the floor of p^(-1/q) 2^F, and entry 1 of both views
            assert r <= mp.ldexp(exact, F) < r + 1, (p, q, prec)
        assert steps.fixed(p, 1) == r and steps.scaled(p, 1) == (r, F)


_SMALL_PRIMES = _prime_list(200)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SMALL_PRIMES), st.integers(1, 700), st.sampled_from([1, 2, 3, 4]),
       st.sampled_from([128, 320]))
def test_stepped_entries_lie_within_their_count(p, a, q, F):
    # fixed: within 2a units below the exact floor(p^(-a/q) 2^F); scaled:
    # at or below p^(-a/q), by less than a (p^(1/q) + 2) 2^(1-F) relative.
    # The draws read the shared tables in no particular order.
    steps = zetas._steps(q, F)
    floor = introot((1 << (q * F)) // p**a, q)
    v = steps.fixed(p, a)
    assert 0 <= floor - v < 2 * a, (p, a, q, F)
    man, e = steps.scaled(p, a)
    assert man.bit_length() <= F
    # man 2^-e <= p^(-a/q) <= man 2^-e (1 + d/D), all raised to the q-th power
    assert man**q * p**a <= 1 << (e * q)
    d, D = a * (introot(p, q) + 3), 1 << (F - 1)
    assert (D << e) ** q <= (man * (D + d)) ** q * p**a


def test_stepped_entries_ignore_the_read_order():
    # each entry is a function of (p, a, q, F) alone: a table whose cursors
    # climb, fall back and restart, on one lane or two, gives what a fresh
    # table gives
    table = zetas._Steps(3, 256)
    for a in (5, 9, 40, 3, 41, 120, 2, 119):
        for p in (2, 3, 97, 101):
            fresh = zetas._Steps(3, 256)
            got = table.fixed(p, a), table.scaled(p, a), table.scaled(p, a + 7, 1)
            assert got == (fresh.fixed(p, a), fresh.scaled(p, a), fresh.scaled(p, a + 7)), (p, a)


def _zeta_table(s, prec, digits):
    # zeta's N-doubling loop around the fixed-point kernel, at prec bits
    with mp.workprec(prec):
        N = 16
        while True:
            out = zetas._zeta_table(s, N, digits)
            if out is not None:
                return out
            N *= 2


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 64])
@pytest.mark.parametrize("prec", [64, 200, 650])
def test_zeta_table_kernel_encloses_library(q, prec):
    digits = int(prec * 0.30103) - 12
    # from just past 1 up to the largest numerator the table serves
    for a in (q + 1, 3 * q + 1, 7 * q + 3, 40 * q + 1, zetas._MAX_ROOT_NUMER):
        s = Fraction(a, q)
        if s.denominator != q:
            continue
        z = _zeta_table(s, prec, digits)
        with mp.workprec(2 * prec):
            assert z.contains(mpmath.zeta(mpf(a) / q)), (s, prec)
        assert z.radius <= mpf(10) ** (-digits) * z.value, (s, prec)


def test_fixed_tables_cold_equals_warm_for_a_shared_F():
    # digits 40 and 45 run at different precisions that share one F, so one
    # stepped table; whichever fills it first, every value is the same
    p40, p45 = (mpmath.libmp.dps_to_prec(d + 12) for d in (40, 45))
    assert p40 != p45 and zetas._fraction_bits(p40) == zetas._fraction_bits(p45)
    s, x = Fraction(7, 3), Fraction(10, 3)
    primes = zetas.primes_upto(100)

    def values():
        with mp.workprec(p40):
            return (zeta(s, 40), zetas._euler_factor(Fraction(10, 3), primes), zetas._prime_power(101, x),
                    shapes._exact_product(3, 2, primes))

    _clear_every_cache()
    cold = values()
    _clear_every_cache()
    zeta(s, 45)
    with mp.workprec(p45):
        zetas._euler_factor(Fraction(10, 3), primes)
        shapes._exact_product(3, 5, zetas.primes_upto(1000))
    zeta.cache_clear()
    warm = values()
    for c, w in zip(cold, warm):
        if isinstance(c, mpf):
            assert c._mpf_ == w._mpf_
        else:
            assert (c.value._mpf_, c.radius._mpf_) == (w.value._mpf_, w.radius._mpf_)


def test_euler_factor_encloses_product():
    primes = zetas.primes_upto(100)
    # the last three are past the stepped tables: mpf prime powers
    for x in (Fraction(5, 4), Fraction(7, 3), Fraction(40, 1), Fraction(65, 64),
              Fraction(4093, 3), Fraction(1.1), Fraction(4097, 3), Fraction(101, 100)):
        with mp.workdps(50):
            f = zetas._euler_factor(x, primes)
        with mp.workdps(120):
            xm = mpf(x.numerator) / x.denominator
            exact = mp.fprod(1 - mpf(p) ** (-xm) for p in primes)
            assert f.contains(exact), x
            assert f.radius <= f.value * mpf(10) ** (-48)


def _clear_every_cache():
    for fn in (zeta, prime_zeta, prime_zeta_tail, zetas._steps, zetas._em_fraction,
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
    zetas._steps(4, zetas._fraction_bits(200)).fixed(997, 300)
    zeta.cache_clear()
    warm = zeta(s, 40)
    assert warm.value._mpf_ == cold.value._mpf_
    assert warm.radius._mpf_ == cold.radius._mpf_


def test_prime_zeta_tail_cold_equals_warm():
    s = Fraction(5, 2)
    _clear_every_cache()
    cold = prime_zeta_tail(s, 100, 40)
    _clear_every_cache()
    # other (s, p0, digits) fill the memo and the tables first, and the
    # repeated call comes from a caller at another precision
    prime_zeta_tail(s, 100, 20)
    prime_zeta_tail(s, 50, 40)
    prime_zeta_tail(Fraction(7, 2), 100, 40)
    shapes.power_sum_euler(2, 3, 40)
    with mp.workdps(15):
        warm = prime_zeta_tail(s, 100, 40)
    with mp.workdps(90):
        again = prime_zeta_tail(s, 100, 40)
    assert prime_zeta_tail.cache_info().hits >= 1
    for out in (warm, again):
        assert out.value._mpf_ == cold.value._mpf_
        assert out.radius._mpf_ == cold.radius._mpf_


def test_prime_zeta_tail_int_and_fraction_share_an_entry():
    prime_zeta_tail.cache_clear()
    a = prime_zeta_tail(3, 100, 30)
    b = prime_zeta_tail(Fraction(3), 100, 30)
    assert b is a
    info = prime_zeta_tail.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_lambda_raises_each_prime_power_once(monkeypatch):
    # Lambda(x) = log(zeta(x) prod_{p <= p0} (1 - p^(-x))): where zeta's sieve
    # runs at the Euler factor's F and reaches p0, the factor reads the
    # entries the sieve stepped to, so Lambda costs what zeta(x) alone does,
    # one stepped run per prime up to the sieve's N
    x, p0, digits = Fraction(4, 3), 100, 80
    with mp.workdps(digits + 12):
        F = zetas._fraction_bits(mp.prec)
    with mp.workdps(digits + 14):  # zeta(x, digits + 2) runs here
        assert zetas._fraction_bits(mp.prec) == F
    sieves = []
    powers_upto = zetas._powers_upto
    monkeypatch.setattr(zetas, "_powers_upto",
                        lambda s, N, F: sieves.append(N) or powers_upto(s, N, F))
    _clear_every_cache()
    zeta(x, digits + 2)
    N = max(sieves)
    assert N >= p0
    table = zetas._steps(3, F)
    after_zeta = dict(table._fixed)
    assert sorted(after_zeta) == list(_prime_list(N))
    lam = zetas._sieved_log_zeta(x, p0, digits)
    # the Euler factor stepped no entry: every cursor is where zeta left it
    assert table._fixed == after_zeta
    # the shared entries change no bit of the result
    _clear_every_cache()
    with mp.workdps(digits + 12):
        zetas._euler_factor(x, zetas.primes_upto(p0))
    fresh = zetas._sieved_log_zeta(x, p0, digits)
    assert (fresh.value._mpf_, fresh.radius._mpf_) == (lam.value._mpf_, lam.radius._mpf_)
