import random
from math import comb

import pytest
from mpmath import mp, mpf

from kfull import density, shapes
from kfull.bounded import ErrorBoundedReal
from kfull.density import (
    SubsetSpec,
    build_table,
    coeffs_a,
    constant_C,
    density_A,
    density_B,
    density_shiu,
    eval_F,
    normalization_check,
    series_coefficients,
    xi_direct,
    xi_from_power_sums,
)
from kfull.shapes import (
    DEFAULT_PRIME_CUTOFF,
    LambdaElement,
    enumerate_lambda,
    lambda_value,
    power_sum_euler,
    power_sums,
    tail_bound,
)


def first_elements(k, count):
    bound = 8.0
    while True:
        elems = enumerate_lambda(k, bound)
        if len(elems) >= count:
            return elems[:count]
        bound *= 2


def test_xi_base_cases():
    with mp.workdps(40):
        ps = power_sums(2, 6, 25)
        xi = xi_from_power_sums(ps, 6)
        assert xi.xi[0].value == 1 and xi.xi[0].radius == 0
        assert xi.xi[1].agrees_with(ps.p(1))
        newton2 = (ps.p(1) * ps.p(1) - ps.p(2)) * mpf(0.5)
        assert xi.xi[2].agrees_with(newton2)


def test_xi_requires_enough_power_sums():
    ps = power_sums(2, 4, 20)
    with pytest.raises(ValueError):
        xi_from_power_sums(ps, 5)


def test_xi_upper_bound_invariant():
    with mp.workdps(45):
        for k in (2, 3):
            ps = power_sums(k, 30, 30)
            xi = xi_from_power_sums(ps, 30)
            P = ps.p(1).hi()
            for r in range(31):
                assert xi.xi[r].hi() > 0  # consistent with positivity
                assert xi.xi[r].lo() <= P**r / mp.factorial(r) + mpf("1e-30")


def test_xi_direct_small_cases():
    with mp.workdps(30):
        assert xi_direct([], 3) == [1, 0, 0, 0]
        e1, e2 = LambdaElement(2, (2,)), LambdaElement(2, (3,))
        vals = xi_direct([e1, e2], 2)
        assert abs(vals[2] - 1 / mp.sqrt(8 * 27)) < mpf("1e-25")
        assert abs(vals[2] - 0.06804) < 1e-5
        single = xi_direct([e1], 1)
        assert abs(single[1] - 1 / mp.sqrt(8)) < mpf("1e-25")
        with pytest.raises(ValueError):
            xi_direct([e1, e1], 2)


@pytest.mark.parametrize("k", [2, 3])
def test_newton_matches_direct_oracle(k):
    """xi from power sums vs the exact symmetric sums over the first 200
    shapes; the gap is at most (omitted reciprocal mass) * xi_(r-1)."""
    with mp.workdps(45):
        elems = first_elements(k, 200)
        direct = xi_direct(elems, 10, digits=35)
        ps = power_sums(k, 10, 30)
        xi = xi_from_power_sums(ps, 10)
        finite_p1 = sum(1 / mp.root(mpf(e.radicand()), k) for e in elems)
        T = ps.p(1).hi() - finite_p1 + mpf("1e-25")  # omitted shape mass
        assert T > 0
        for r in range(1, 11):
            gap = xi.xi[r].value - direct[r]
            bound = T * xi.xi[r - 1].hi() + xi.xi[r].radius + mpf("1e-25")
            assert 0 <= gap <= bound, r


def test_coeffs_examples(reference):
    with mp.workdps(45):
        co2 = series_coefficients(2)
        assert abs(float(co2.a[0]) - 0.049227) < 5e-6
        assert abs(float(co2.a[2]) - 0.079380) < 5e-6
        for key, n in (("a_2,1", 1), ("a_2,2", 2), ("a_2,3", 3), ("a_2,6", 6), ("a_2,10", 10)):
            assert abs(co2.a[n].value - mpf(reference[key])) <= co2.a[n].radius + mpf("1e-25")
        co3 = series_coefficients(3)
        assert abs(float(co3.a[0]) - 0.000146) < 5e-6
        for key, n in (("a_3,1", 1), ("a_3,3", 3), ("a_3,10", 10)):
            assert abs(co3.a[n].value - mpf(reference[key])) <= co3.a[n].radius + mpf("1e-25")


def test_coeffs_guard_errors():
    with mp.workdps(40):
        ps = power_sums(2, 20, 25)
        xi = xi_from_power_sums(ps, 20)
        with pytest.raises(ValueError):
            coeffs_a(xi, 10, guard=15)  # xi too short


def test_constant_C_reference(reference):
    with mp.workdps(45):
        for k, key in ((2, "C_2"), (3, "C_3")):
            C = constant_C(k)
            assert abs(C.value - mpf(reference[key])) <= C.radius + mpf("1e-25")


@pytest.mark.parametrize("k", [2, 3])
def test_three_route_agreement_and_positivity(k):
    # the routes must overlap as enclosures: a float spread of 1e-9 would let
    # a cell that is 40 % off pass at k >= 3
    for l in range(6):
        for m in range(6):
            vals = [density_A(k, l, m, meth) for meth in ("direct", "inversion", "xi")]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert vals[i].agrees_with(vals[j]), (k, l, m, i, j)
            assert min(v.value for v in vals) > 0, (k, l, m)  # every cell density is positive


def test_density_A_table_values(golden_tables):
    for k, table in golden_tables.items():
        for (l, m), expected in table.items():
            got = float(density_A(k, l, m))
            assert abs(got - expected) <= 5e-6, (k, l, m)


def test_density_A_symmetry_exact():
    for k in (2, 3):
        for (l, m) in ((0, 1), (1, 2), (2, 5)):
            assert density_A(k, l, m).value == density_A(k, m, l).value


def test_density_A_multinomial_structure():
    # entry(l, m) = C(l+m, l) * entry(0, l+m), identical up to one float op
    with mp.workdps(40):
        for k in (2, 3):
            for (l, m) in ((1, 1), (1, 2), (2, 3)):
                lhs = density_A(k, l, m).value
                rhs = comb(l + m, l) * density_A(k, 0, l + m).value
                assert abs(lhs - rhs) <= mpf("1e-30") * lhs


def test_density_A_errors():
    with pytest.raises(ValueError):
        density_A(1, 0, 0)
    with pytest.raises(ValueError):
        density_A(2, -1, 0)
    with pytest.raises(ValueError):
        density_A(2, 30, 30)
    with pytest.raises(ValueError):
        density_A(2, 0, 0, method="nope")


def test_shiu_values(reference):
    with mp.workdps(45):
        for k in (2, 3):
            for l in range(4):
                d = density_shiu(k, l)
                ref = mpf(reference[f"d_{k},{l}"])
                assert abs(d.value - ref) <= d.radius + mpf("1e-25")
    assert abs(float(density_shiu(2, 0)) - 0.275) < 1e-3
    assert abs(float(density_shiu(2, 1)) - 0.395) < 1e-3
    assert abs(float(density_shiu(2, 2)) - 0.231) < 1e-3


@pytest.mark.parametrize("k", [2, 3])
def test_shiu_row_sum_route(k):
    for l in range(4):
        a = density_shiu(k, l, "xi_alternating")
        b = density_shiu(k, l, "row_sum")
        assert a.agrees_with(b), l


def _bits(x):
    return (x.value._mpf_, x.radius._mpf_)


@pytest.mark.parametrize("k", [2, 3])
def test_inversion_cells_same_from_cold_or_warm_memo(k):
    cells = [(l, m) for l in range(4) for m in range(l, 4)]
    cold = {}
    for l, m in cells:
        density._engine.cache_clear()
        cold[(l, m)] = _bits(density_A(k, l, m, "inversion"))
    for l, m in cells:
        assert _bits(density_A(k, l, m, "inversion")) == cold[(l, m)], (l, m)


def test_one_sided_memo_ignores_caller_precision():
    density._engine.cache_clear()
    with mp.workdps(15):
        low = [_bits(density_shiu(2, l)) for l in range(4)]
    density._engine.cache_clear()
    with mp.workdps(80):
        high = [_bits(density_shiu(2, l)) for l in range(4)]
    assert low == high
    assert density._engine.cache_info().maxsize is not None


def test_density_B_examples():
    empty = SubsetSpec(2, ())
    C2 = density_B(2, empty, empty)
    assert abs(float(C2) - 0.049227) < 5e-6
    one = SubsetSpec(2, ((2,),))
    d = density_B(2, one, empty)
    assert abs(float(d) - 0.059422) < 5e-6
    swapped = density_B(2, empty, one)
    assert float(swapped) == float(d)  # depends only on the union
    with pytest.raises(ValueError):
        density_B(2, one, one)


def test_density_B_union_invariance():
    a, b = (2,), (3,)
    both_left = density_B(2, SubsetSpec(2, (a, b)), SubsetSpec(2, ()))
    split = density_B(2, SubsetSpec(2, (a,)), SubsetSpec(2, (b,)))
    split_other = density_B(2, SubsetSpec(2, (b,)), SubsetSpec(2, (a,)))
    with mp.workdps(40):
        assert abs(both_left.value - split.value) <= both_left.radius + split.radius
        assert split.value == split_other.value


def test_density_B_positive_and_purely_truncated_product_bracket():
    """C_2 must sit inside [partial * (1 - 2T), partial] where partial is the
    exact product over shapes lam <= X and T bounds the omitted 1/lam mass."""
    with mp.workdps(40):
        X = 10**4
        elems = enumerate_lambda(2, X)
        partial = mpf(1)
        for e in elems:
            partial *= 1 - 2 / mp.root(mpf(e.radicand()), 2)
        B = int(mpf(X) ** mpf(2.0 / 3.0))
        T = tail_bound(2, 1, B)
        C2 = constant_C(2)
        assert partial * (1 - 2 * T) - mpf("1e-20") <= C2.value <= partial + mpf("1e-20")
        assert C2.lo() > 0


def test_subset_spec_validation():
    with pytest.raises(ValueError):
        SubsetSpec(2, ((2,), (2,)))  # duplicates
    with pytest.raises(ValueError):
        SubsetSpec(2, ((4,),))  # invalid element
    s = SubsetSpec(3, ((2, 1), (1, 2)))
    assert len(s.elements) == 2


@pytest.mark.parametrize("k", [2, 3])
def test_normalization(k):
    n = normalization_check(k)
    assert n.contains(1)
    assert float(n.radius) <= 1e-9
    assert abs(float(n.value) - 1.0) <= 1e-9


def test_normalization_truncated_below_one():
    # with only the first few coefficients the mass falls visibly short of 1
    co = series_coefficients(3)
    partial = sum(float(co.a[n]) * 2**n for n in range(3))
    assert partial < 1


def test_eval_F_fixed_points(reference):
    with mp.workdps(40):
        assert float(eval_F(2, 2)) == 1.0
        F0 = eval_F(2, 0, 20)
        C2 = constant_C(2)
        assert abs(F0.value - C2.value) <= F0.radius + C2.radius
        F1 = eval_F(2, 1, 20)
        d0 = density_shiu(2, 0)
        assert abs(F1.value - d0.value) <= F1.radius + d0.radius
        for k in (2, 3):
            F3 = eval_F(k, 3, 20)
            assert abs(F3.value - mpf(reference[f"F_{k}(3)"])) <= F3.radius + mpf("1e-20")


def test_eval_F_matches_shiu_generating_value():
    # F(3) = sum over l of one-sided densities times 2^l
    with mp.workdps(40):
        F3 = eval_F(2, 3, 20)
        acc = ErrorBoundedReal.exact(0)
        for l in range(30):
            acc = acc + density_shiu(2, l) * mpf(2) ** l
        # remaining one-sided mass beyond l = 30 is far below the radii here
        assert abs(F3.value - acc.value) <= F3.radius + acc.radius + mpf("1e-12")


def test_eval_F_far_argument_uses_series():
    with mp.workdps(40):
        # truncated-product oracle at z = 10: log tail over omitted shapes
        X = 10**4
        elems = enumerate_lambda(2, X)
        partial = mpf(1)
        for e in elems:
            partial *= 1 + 8 / mp.root(mpf(e.radicand()), 2)
        B = int(mpf(X) ** mpf(2.0 / 3.0))
        T = tail_bound(2, 1, B)
        F10 = eval_F(2, 10, 20)
        assert partial - mpf("1e-18") <= F10.value <= partial * mp.exp(8 * T) + mpf("1e-18")


def test_eval_F_beyond_series_depth_stays_enclosing():
    # far from z = 2 the head product carries the value
    with mp.workdps(40):
        F = eval_F(2, 120, 15)
        assert F.lo() > 0
        # finer box product must land inside the reported enclosure
        from kfull.arith import shape_tuples
        from kfull.shapes import tail_bound
        w = mpf(120) - 2
        partial = mpf(1)
        B = 4096
        for M, _ in shape_tuples(2, box=B)[1:]:
            partial *= 1 + w / mp.root(mpf(M), 2)
        t = 2 * w * tail_bound(2, 1, B)
        assert F.lo() <= partial * mp.exp(t) and partial * mp.exp(-t) <= F.hi()


@pytest.mark.parametrize("k", [2, 3])
def test_eval_F_changes_sign_at_each_shape(k):
    # F_k(2 - lam) = 0 for every shape lam, a simple zero, so a step of 1e-6
    # to either side gives two certified values of opposite sign
    with mp.workdps(40):
        for e in first_elements(k, 3):
            lam = mp.root(mpf(e.radicand()), k)
            below = eval_F(k, 2 - lam - mpf("1e-6"))
            above = eval_F(k, 2 - lam + mpf("1e-6"))
            assert below.hi() < 0 < above.lo() or above.hi() < 0 < below.lo(), e.b


def test_eval_F_keeps_its_sign_off_the_shapes():
    # control: 72 = 2^3 * 3^2 is no k = 2 radicand b^3, so F_2 has no zero
    # at 2 - sqrt(72)
    with mp.workdps(40):
        at = 2 - mp.sqrt(72)
        below = eval_F(2, at - mpf("1e-6"))
        above = eval_F(2, at + mpf("1e-6"))
        assert min(below.lo(), above.lo()) > 0 or max(below.hi(), above.hi()) < 0


@pytest.mark.parametrize("digits", [15, 30])
@pytest.mark.parametrize("k, z", [(2, -40), (2, 10), (2, 40), (2, 120), (3, -20), (3, 30)])
def test_eval_F_relative_radius_meets_digits(k, z, digits):
    F = eval_F(k, z, digits)
    with mp.workdps(40):
        assert F.radius <= mpf(10) ** (-digits) * abs(F.value), (F, k, z)


def test_build_table_shape():
    t = build_table(2, 3)
    assert t.L == 3 and len(dict(t.cells())) == 10
    assert t.entry(2, 1).value == t.entry(1, 2).value
    with pytest.raises(ValueError):
        build_table(2, -1)


def test_enclosures_consistent_across_precision():
    # recomputing at higher precision must stay inside the coarser enclosure
    # (up to both radii); catches any systematically dishonest radius
    for k in (2, 3):
        coarse = density_A(k, 1, 1, digits=30)
        fine = density_A(k, 1, 1, digits=42)
        assert coarse.agrees_with(fine)
        assert fine.radius < coarse.radius or float(coarse.radius) < 1e-30
        a = density_shiu(k, 2, digits=30)
        b = density_shiu(k, 2, digits=42)
        assert a.agrees_with(b)


@pytest.mark.parametrize("k, g", [(2, 40), (3, 45)])
def test_every_reader_shares_one_engine(k, g):
    # one (k, digits, p0) builds one engine, and its guard is every route's depth
    density._engine.cache_clear()
    build_table(k, 2, "inversion")
    normalization_check(k)
    density_shiu(k, 3, "row_sum")
    eval_F(k, 3, 30)
    assert density._engine.cache_info().misses == 1
    e = density._engine(k, 30, DEFAULT_PRIME_CUTOFF)
    assert e.g == g and e.coeffs.n_max == max(44, g)
    assert e.xi.r_max == e.coeffs.n_max + 2 * g


@pytest.mark.parametrize("k", [2, 3, 4])
def test_series_obey_the_majorant_of_the_one_truncation_bound(k):
    # every shift's tail bound rests on |s_i| <= B P^i / i!, P = P_k(1):
    # B = 1 for xi_r and a_n, B = e^P for d_j.  A full table in all three
    # methods reads every value of the three sequences; each true value obeys
    # the bound, so each enclosure must reach it (deep values sit at the
    # working-precision noise floor, which may pass the bound within the radius)
    e = density._engine(k, 30, DEFAULT_PRIME_CUTOFF)
    with mp.workdps(60):
        P = e.ps.p(1).hi()
        for name, seq, B in (("xi", e.xi.xi, 1), ("a", e.coeffs.a, 1), ("d", e.d, mp.exp(P))):
            for i in range(len(seq)):
                x = seq[i]
                assert abs(x.value) - x.radius <= B * P**i / mp.factorial(i), (name, i)


# the engine at its default 30 digits: its ceilings r_max and n_max, its
# guard, its power-sum digits and the working digits everything grows at
ENGINE = {2: (124, 44, 40, 61, 71), 3: (135, 45, 45, 68, 78)}


def _bits(e):
    return e.value._mpf_, e.radius._mpf_


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("caller_dps", [15, 120])
def test_engine_reads_match_the_eager_sums(k, order, caller_dps):
    # every value grows on read at one fixed precision, so neither the order
    # of the reads nor the caller's precision can move a bit of it
    r_max, n_max, g, ps_digits, work_digits = ENGINE[k]
    with mp.workdps(work_digits):
        # the reference is materialised at once, read ascending
        xi = xi_from_power_sums(power_sums(k, r_max, ps_digits), r_max)
        eager = {"xi": tuple(xi.xi), "a": tuple(coeffs_a(xi, n_max, g).a)}
    density._engine.cache_clear()
    e = density._engine(k, 30, DEFAULT_PRIME_CUTOFF)
    assert (e.xi.r_max, e.coeffs.n_max, e.g) == (r_max, n_max, g)
    lazy = {"xi": e.xi.xi, "a": e.coeffs.a}
    reads = [("xi", r) for r in range(r_max + 1)] + [("a", n) for n in range(n_max + 1)]
    if order == "descending":
        reads.reverse()
    elif order == "shuffled":
        random.Random(f"{k}-{caller_dps}").shuffle(reads)
    with mp.workdps(caller_dps):
        for name, i in reads:
            assert _bits(lazy[name][i]) == _bits(eager[name][i]), (name, i)


def test_engine_is_built_from_the_public_builders(monkeypatch):
    # one build calls each builder once, and reading xi_5 computes only the
    # power sums Newton's identities read, P_k(1..5)
    built, read = [], []
    for name in ("power_sums", "xi_from_power_sums", "coeffs_a"):
        builder = getattr(density, name)
        monkeypatch.setattr(density, name,
                            lambda *a, _b=builder, _n=name: built.append(_n) or _b(*a))
    euler = shapes.power_sum_euler
    monkeypatch.setattr(shapes, "power_sum_euler",
                        lambda k, m, *a: read.append(m) or euler(k, m, *a))
    density._engine.cache_clear()
    try:
        e = density._engine(2, 30, DEFAULT_PRIME_CUTOFF)
        assert sorted(built) == ["coeffs_a", "power_sums", "xi_from_power_sums"]
        assert read == []
        e.xi.xi[5]
        assert sorted(read) == [1, 2, 3, 4, 5]
    finally:
        density._engine.cache_clear()


def test_k4_engine_scales_depth():
    # P_4(1) is much larger than for k in {2,3}; the engine must deepen its
    # truncations on its own to keep the enclosures meaningful
    C4 = constant_C(4)
    assert C4.lo() > 0 and float(C4.radius) < 1e-12
    n4 = normalization_check(4)
    assert n4.contains(1) and float(n4.radius) < 1e-6
    # the range checks follow the depth the engine built, past the default 44
    co = series_coefficients(4)
    assert co.n_max > 45
    assert density_A(4, 0, 45).agrees_with(co.a[45])
    assert density_A(4, 20, 25).hi() >= 0
    with pytest.raises(ValueError):
        density_A(4, 0, co.n_max + 1)
    assert density_shiu(4, 90).hi() >= 0
