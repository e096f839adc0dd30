from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from kfull.bounded import ErrorBoundedReal, dot


def ebr(v, r=0):
    return ErrorBoundedReal(mpf(v), mpf(r))


def test_basic_enclosure():
    x = ebr(1.5, 0.25)
    assert x.contains(1.5) and x.contains(1.25) and x.contains(1.75)
    assert not x.contains(1.76)
    assert float(x) == 1.5


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        ebr(1, -1e-30)


def test_addition_and_subtraction_radii():
    z = ebr(1, 0.1) + ebr(2, 0.2)
    assert z.contains(3) and z.radius >= mpf("0.3")
    w = ebr(1, 0.1) - ebr(2, 0.2)
    assert w.contains(-1) and w.radius >= mpf("0.3")
    assert (1 - ebr(0.25)).contains(0.75)


def test_multiplication_covers_products():
    x = ebr(3, 0.5)
    y = ebr(-2, 0.25)
    z = x * y
    for a in (2.5, 3, 3.5):
        for b in (-2.25, -2, -1.75):
            assert z.contains(a * b)


def test_reciprocal_and_division():
    x = ebr(4, 1)
    r = x.reciprocal()
    assert r.contains(1 / 3.0) and r.contains(1 / 5.0) and r.contains(0.25)
    with pytest.raises(ZeroDivisionError):
        ebr(0.5, 1).reciprocal()
    assert (ebr(1) / ebr(4)).contains(0.25)


def test_monotone_maps():
    with mp.workdps(30):
        x = ebr(2, 1e-10)
        assert x.exp().contains(mp.exp(2))
        assert x.log().contains(mp.log(2))
        assert x.root(2).contains(mp.sqrt(2))
        x = mpf(1e-30)
        assert ebr(x, 0).log1p().contains(x - x**2 / 2)  # next term is ~1e-90


def test_tiny_radius_survives_monotone_maps():
    # regression: endpoints must be formed exactly, otherwise a radius below
    # value * eps rounds away and the output radius collapses
    with mp.workdps(30):
        x = ErrorBoundedReal(mpf(1) + mpf("1e-20"), mpf("1e-45"))
        y = x.log()
        assert y.radius >= mpf("0.9e-45")


def test_pow_int():
    x = ebr(2, 1e-20)
    assert x.pow_int(10).contains(1024)
    assert x.pow_int(0).contains(1)
    assert x.pow_int(-2).contains(0.25)


def test_agrees_with():
    assert ebr(1.0, 1e-9).agrees_with(ebr(1.0 + 1.5e-9, 1e-9))
    assert not ebr(1.0, 1e-12).agrees_with(ebr(1.0 + 1e-9, 1e-12))


def frac(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


def encloses(z, exact: Fraction) -> bool:
    return frac(z.lo()) <= exact <= frac(z.hi())


DPS = st.sampled_from((15, 30, 60))
VALUES = st.builds(lambda n, e: Fraction(n) * Fraction(10) ** e,
                   st.integers(-10**30, 10**30), st.integers(-40, 5))
RADII = st.builds(lambda n, e: Fraction(n) * Fraction(10) ** e,
                  st.integers(0, 10**20), st.integers(-60, 0))


def wide_mpf(v: Fraction) -> mpf:
    with mp.workdps(60):
        return mpf(v.numerator) / v.denominator


# plain operands: ints past the precision, non-dyadic Fractions, and mpfs
# built at 60 digits
PLAIN = st.one_of(st.integers(-2**200, 2**200), VALUES, VALUES.map(wide_mpf))


@given(VALUES, RADII, VALUES, RADII, PLAIN, DPS, DPS)
@settings(deadline=None, max_examples=300)
def test_operations_enclose_every_endpoint_combination(va, ra, vb, rb, plain, built, used):
    # operands may carry more bits than the precision the operation runs at
    with mp.workdps(built):
        a = ErrorBoundedReal(mpf(va.numerator) / va.denominator,
                             mpf(ra.numerator) / ra.denominator)
        b = ErrorBoundedReal(mpf(vb.numerator) / vb.denominator,
                             mpf(rb.numerator) / rb.denominator)
    ends_a = (frac(a.lo()), frac(a.hi()))
    ends_b = (frac(b.lo()), frac(b.hi()))
    p = frac(plain) if isinstance(plain, mpf) else Fraction(plain)
    with mp.workdps(used):
        results = {"+": a + b, "-": a - b, "*": a * b, "neg": -a}
        with_plain = {"+": (a + plain, plain + a), "-": (a - plain, -(plain - a)),
                      "*": (a * plain, plain * a)}
    for z in [*results.values(), *(z for pair in with_plain.values() for z in pair)]:
        assert isinstance(z.value, mpf) and isinstance(z.radius, mpf)
        assert z.radius >= 0
    for x, y in product(ends_a, ends_b):
        assert encloses(results["+"], x + y)
        assert encloses(results["-"], x - y)
        assert encloses(results["*"], x * y)
    for x in ends_a:
        assert encloses(results["neg"], -x)
        for z in with_plain["+"]:
            assert encloses(z, x + p)
        for z in with_plain["-"]:
            assert encloses(z, x - p)
        for z in with_plain["*"]:
            assert encloses(z, x * p)


def test_negation_keeps_radius_at_lower_precision():
    with mp.workdps(60):
        x = ErrorBoundedReal(mpf(1) / 3, mpf(1) / 7 * mpf("1e-20"))
    with mp.workdps(15):
        y = -x
    assert y.radius._mpf_ == x.radius._mpf_
    assert frac(y.value) == -frac(x.value)


def chain(pairs) -> ErrorBoundedReal:
    """The operation-by-operation chain (each * and +/- its own rounded dot)
    that one fused dot() replaces: sum_n (-1)^n t_n, accumulated left to
    right from an exact 0, over t_n = (-1)^n x_n w_n."""
    acc = ErrorBoundedReal.exact(0)
    for n, (x, w) in enumerate(pairs):
        if isinstance(w, int):
            with mp.workprec(max(53, w.bit_length())):
                w = ErrorBoundedReal.exact(w)  # mpf(w) exactly, not rounded
        term = x * (w if n % 2 == 0 else -w)
        acc = acc + term if n % 2 == 0 else acc - term
    return acc


RADII_OR_ZERO = st.one_of(st.just(Fraction(0)), RADII)
WEIGHTS = st.one_of(st.integers(-2**200, 2**200), st.tuples(VALUES, RADII_OR_ZERO))
TERMS = st.lists(st.tuples(VALUES, RADII_OR_ZERO, WEIGHTS), min_size=1, max_size=4)


def build_pairs(terms, dps):
    def make(v, r):
        return ErrorBoundedReal(mpf(v.numerator) / v.denominator,
                                mpf(r.numerator) / r.denominator)

    with mp.workdps(dps):
        return [(make(v, r), w if isinstance(w, int) else make(*w)) for v, r, w in terms]


def endpoints(x):
    return (x, x) if isinstance(x, int) else (frac(x.lo()), frac(x.hi()))


@given(TERMS, DPS, DPS)
@settings(deadline=None, max_examples=300)
def test_dot_encloses_every_endpoint_combination(terms, built, used):
    pairs = build_pairs(terms, built)
    with mp.workdps(used):
        z = dot(pairs)
    assert isinstance(z.value, mpf) and isinstance(z.radius, mpf) and z.radius >= 0
    per_term = [[a * b for a, b in product(endpoints(x), endpoints(w))] for x, w in pairs]
    for combo in product(*per_term):
        assert encloses(z, sum(combo))


@given(TERMS, DPS, DPS)
@settings(deadline=None, max_examples=300)
def test_dot_radius_never_exceeds_the_chain(terms, built, used):
    pairs = build_pairs(terms, built)
    with mp.workdps(used):
        fused, chained = dot(pairs), chain(pairs)
    assert fused.radius <= chained.radius


def test_dot_rounds_once_and_exact_sums_stay_exact():
    with mp.workdps(15):
        third = ErrorBoundedReal(mpf(1) / 3, 0)
        assert dot([(third, 3), (third, -3)]).radius == 0  # cancels exactly
        z = dot([(ebr(1), 2**200), (ebr(1), 1)])
    assert encloses(z, Fraction(2**200 + 1))
    assert 0 < z.radius <= mp.eps * abs(z.value)
    assert dot([]).value == 0 and dot([]).radius == 0


def test_dot_exact_zero_sum():
    two = ErrorBoundedReal.exact(2)
    z = dot([(two, 1), (two, -1)])
    assert z.value == 0 and z.radius == 0
    x = ebr(1.5, 0.25)
    d = x - x
    assert d.value == 0 and d.radius == mpf("0.5")


def test_exact_counts_its_rounding():
    with mp.workdps(15):
        big = ErrorBoundedReal.exact(2**60 + 1)
        assert big.value == 2**60 and big.radius == 1
        assert big.contains(2**60 + 1)
        assert ErrorBoundedReal.exact(2**60).radius == 0
    with mp.workprec(30):
        tenth = ErrorBoundedReal.exact(0.1)
    err = abs(Fraction(0.1) - frac(tenth.value))  # 0.1 needs 55 bits
    assert 0 < err <= frac(tenth.radius) <= err * (1 + Fraction(1, 2**28))
    assert tenth.contains(0.1)


def test_contains_compares_exactly():
    with mp.workdps(15):
        assert not ErrorBoundedReal.exact(2**60).contains(2**60 + 1)
    with mp.workprec(30):
        rounded = ErrorBoundedReal(mpf(0.1), 0)  # the constructor rounds, radius 0
    assert not rounded.contains(0.1)
    assert not rounded.contains(Fraction(1, 10))
    assert ebr(0.5, 0.25).contains(Fraction(3, 4)) and not ebr(0.5, 0.25).contains(Fraction(4, 5))


def test_constructor_counts_the_rounding_of_a_wider_value():
    # 1/3 built at 60 digits and wrapped at 15: the value rounds, and its
    # conversion error joins the radius; a wide radius rounds up
    with mp.workdps(60):
        third = mpf(1) / 3
        tiny = third * mpf(10) ** -40
    with mp.workdps(15):
        x = ErrorBoundedReal(third, 0)
        assert x.contains(third)
        assert 0 < x.radius <= abs(x.value) * mp.eps
        w = ErrorBoundedReal(third, tiny)
        assert w.contains(third + tiny) and w.contains(third - tiny)
        assert frac(ErrorBoundedReal(1, tiny).radius) >= frac(tiny)
        exact = ErrorBoundedReal(mpf(1) / 4, mpf(2) ** -60)  # fits: kept bit for bit
        assert exact.value == mpf(1) / 4 and exact.radius == mpf(2) ** -60
        with pytest.raises(ValueError):
            ErrorBoundedReal(third, -tiny)


@pytest.mark.parametrize("weight", [1.0, mpf(2), Fraction(1, 3)])
def test_dot_refuses_rounded_weights(weight):
    with pytest.raises(TypeError):
        dot([(ebr(1), weight)])


@pytest.mark.parametrize("x, w", [(ebr(mp.inf), 1), (ebr(1, mp.inf), 1),
                                  (ebr(1), ebr(mp.nan)), (ebr(1), ebr(1, mp.inf))])
def test_dot_refuses_non_finite_operands(x, w):
    with pytest.raises(ValueError):
        dot([(x, w)])
