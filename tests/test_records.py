"""The value types: ErrorBoundedReal is a slotted number, the records are
NamedTuples, and both refuse assignment.  The constructor errors, reprs and
equality pinned here are those the types had as frozen dataclasses."""

import copy
import pickle
from fractions import Fraction

import pytest
from mpmath import mpf

from kfull import cli
from kfull.arith import KFullRepr, LambdaElement, SubsetSpec
from kfull.bounded import ErrorBoundedReal, _make
from kfull.density import DensityTable, SeriesCoeffs, XiSequence
from kfull.empirical import EmpiricalCounts, IntervalHit, TableComparison
from kfull.shapes import PowerSums


def third():
    return ErrorBoundedReal(Fraction(1, 3), 0)


def test_error_bounded_real_equality_hash_and_repr():
    x = third()
    assert x == third() and hash(x) == hash(third())
    assert hash(x) == hash((x.value, x.radius))
    # equal only to the same class: not to the tuple of its fields
    assert x != (x.value, x.radius) and x != x.value
    assert x != ErrorBoundedReal(x.value, x.radius * 2)
    assert len({x, third(), -x}) == 2
    assert repr(x) == "ErrorBoundedReal(0.33333333333333331, radius=1.85e-17)"
    assert repr(ErrorBoundedReal(mpf(2), mpf("1e-20"))) == "ErrorBoundedReal(2.0, radius=1.0e-20)"
    assert ErrorBoundedReal(value=mpf(2), radius=0) == ErrorBoundedReal(mpf(2), 0)


def test_error_bounded_real_refuses_assignment():
    x = third()
    for name in ("value", "radius", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, mpf(1))
    with pytest.raises(AttributeError, match="cannot delete field 'value'"):
        del x.value
    assert x == third()
    # the internal builder still fills the slots, bit for bit, and so do
    # pickle and copy, which rebuild through it
    y = _make(x.value, x.radius)
    assert y == x and y.value is x.value
    for z in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(z) is ErrorBoundedReal and z == x


def test_error_bounded_real_is_no_tuple():
    x = third()
    with pytest.raises(TypeError, match="cannot create mpf from ErrorBoundedReal"):
        mpf(x)
    with pytest.raises(TypeError):
        len(x)
    with pytest.raises(TypeError):
        iter(x)
    with pytest.raises(TypeError):
        x[0]
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        ErrorBoundedReal(1, -1)


RECORDS = [
    KFullRepr(2, 3, (2,)),
    LambdaElement(2, (2,)),
    SubsetSpec(2, ((2,),)),
    PowerSums(2, ()),
    XiSequence(2, ()),
    SeriesCoeffs(2, ()),
    DensityTable(2, 0, "direct", {}),
    EmpiricalCounts(2, 10, {}, 143),
    IntervalHit(3, "left", 10, KFullRepr(2, 1, (2,))),
    TableComparison(2, 10, {}),
    cli.RunConfig(),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    # no record names a field after a tuple method it would shadow
    assert not {"count", "index"} & set(record._fields)


@pytest.mark.parametrize("make, message", [
    (lambda: LambdaElement(1, ()), "k must be >= 2"),
    (lambda: LambdaElement(2, (4,)), "b-product must be squarefree and >= 2"),
    (lambda: LambdaElement(2, (1,)), "b-product must be squarefree and >= 2"),
    (lambda: LambdaElement(3, (2,)), "b must be a tuple of k-1 positive integers"),
    (lambda: LambdaElement(2, (0,)), "b must be a tuple of k-1 positive integers"),
    (lambda: LambdaElement(2, ("x",)), "invalid literal for int() with base 10: 'x'"),
    (lambda: SubsetSpec(2, ((2,), (2,))), "subset elements must be distinct"),
    (lambda: SubsetSpec(2, (LambdaElement(3, (2, 1)),)), "mixed k in subset"),
    (lambda: SubsetSpec(2, ((4,),)), "b-product must be squarefree and >= 2"),
    (lambda: KFullRepr(1, 1, ()).validate(), "k must be >= 2"),
    (lambda: KFullRepr(2, 0, (2,)).validate(), "invalid representation fields"),
    (lambda: KFullRepr(2, 1, (4,)).validate(), "b-product must be squarefree"),
])
def test_constructor_and_validate_errors(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_records_normalise_and_keep_their_reprs():
    e = LambdaElement(3, (2.0, 1))
    assert e.b == (2, 1) and all(type(x) is int for x in e.b)
    assert repr(e) == "LambdaElement(k=3, b=(2, 1))"
    s = SubsetSpec(2, ((2,), LambdaElement(2, (3,))))
    assert s.elements == (LambdaElement(2, (2,)), LambdaElement(2, (3,)))
    assert repr(s) == ("SubsetSpec(k=2, elements=(LambdaElement(k=2, b=(2,)), "
                       "LambdaElement(k=2, b=(3,))))")
    assert repr(KFullRepr(2, 3, (2,))) == "KFullRepr(k=2, a=3, b=(2,))"
    assert repr(IntervalHit(3, "left", 10, KFullRepr(2, 1, (2,)))) == (
        "IntervalHit(n=3, side='left', value=10, repr=KFullRepr(k=2, a=1, b=(2,)))")
    assert repr(EmpiricalCounts(2, 10, {(0, 0): 3}, 143)) == (
        "EmpiricalCounts(k=2, N=10, counts={(0, 0): 3}, bound=143)")


def test_run_config_carries_the_parser_defaults():
    assert cli.RunConfig() == cli.RunConfig(
        k=2, max_index=5, digits=30, N=None, fmt="text", out=None,
        threads=1, quick=False, tolerance_scale=1.0, method="direct",
        cap=cli.DEFAULT_ENUM_CAP)
    parser = cli.build_parser()
    for command in ("table", "constants", "verify", "empirical"):
        opt = cli._merge_options(parser, parser.parse_args([command]))
        assert cli.RunConfig(**{n: opt[n] for n in cli.RunConfig._fields}) == cli.RunConfig()
