"""Real numbers carrying a guaranteed enclosure radius.

An ErrorBoundedReal holds a working-precision value v and a radius r >= 0
such that the mathematically exact quantity lies in [v - r, v + r].  Radii
combine by first-order interval rules (sum of radii under addition, cross
terms under multiplication) plus a small per-operation slop covering the
floating-point rounding of the value itself; monotone unary maps (exp, log,
kth root, reciprocal) propagate by evaluating at the enclosure endpoints.

All arithmetic happens at the caller's current mpmath precision; values are
mpf, so enclosures survive context changes once created.

The public constructor, exact() and the coercion of plain numbers validate
their input: they convert it to mpf and reject a negative radius.  The
results of the operations below skip that check and are built directly by
_make.  Each of their values and radii is already an mpf (a result of mpf
arithmetic, or an operand's own field) and every radius is a sum of
non-negative terms, so the check could never fail; it only cost a conversion
and a comparison on every operation.  The conversion also rounded at the
caller's precision without widening the radius to match, so negation and
widened() now keep an operand's fields bit for bit: negation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf


def _slop(v) -> mpf:
    # rounding envelope for one mpf operation at the current precision;
    # scaling by a power of two is exact, so grouping eps * 4 changes no bit
    return abs(v) * (mp.eps * 4)


def _pad(r) -> mpf:
    # radius arithmetic itself rounds; repay that with a relative bump so a
    # computed radius can never undercut the exact one
    return r + r * (mp.eps * 8)


def _make(v: mpf, r: mpf) -> "ErrorBoundedReal":
    # internal results only: v and r are mpf and r >= 0 by construction
    out = object.__new__(ErrorBoundedReal)
    object.__setattr__(out, "value", v)
    object.__setattr__(out, "radius", r)
    return out


@dataclass(frozen=True)
class ErrorBoundedReal:
    value: mpf
    radius: mpf

    def __post_init__(self):
        object.__setattr__(self, "value", mpf(self.value))
        object.__setattr__(self, "radius", mpf(self.radius))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    # -- enclosure queries ------------------------------------------------

    # endpoints are formed exactly: rounding them at context precision would
    # silently absorb radii smaller than value * eps

    def lo(self) -> mpf:
        return mp.fsub(self.value, self.radius, exact=True)

    def hi(self) -> mpf:
        return mp.fadd(self.value, self.radius, exact=True)

    def contains(self, x) -> bool:
        return self.lo() <= mpf(x) <= self.hi()

    def agrees_with(self, other: "ErrorBoundedReal") -> bool:
        """True when the two enclosures overlap."""
        d = abs(mp.fsub(self.value, other.value, exact=True))
        return d <= mp.fadd(self.radius, other.radius, exact=True)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"ErrorBoundedReal({mp.nstr(self.value, 17)}, radius={mp.nstr(self.radius, 3)})"

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def exact(x) -> "ErrorBoundedReal":
        return ErrorBoundedReal(mpf(x), mpf(0))

    def widened(self, extra) -> "ErrorBoundedReal":
        return _make(self.value, _pad(self.radius + abs(mpf(extra))))

    def __add__(self, other):
        o = _coerce(other)
        v = self.value + o.value
        return _make(v, _pad(self.radius + o.radius) + _slop(v))

    __radd__ = __add__

    def __neg__(self):
        return _make(mp.fneg(self.value, exact=True), self.radius)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        v = self.value * o.value
        r = (
            abs(self.value) * o.radius
            + abs(o.value) * self.radius
            + self.radius * o.radius
        )
        return _make(v, _pad(r) + _slop(v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return _coerce(other) * self.reciprocal()

    def reciprocal(self) -> "ErrorBoundedReal":
        if self.lo() <= 0 <= self.hi():
            raise ZeroDivisionError("enclosure straddles zero")
        a, b = 1 / self.hi(), 1 / self.lo()
        if a > b:
            a, b = b, a
        v = (a + b) / 2
        return _make(v, _pad((b - a) / 2) + _slop(v))

    def pow_int(self, n: int) -> "ErrorBoundedReal":
        if n == 0:
            return ErrorBoundedReal.exact(1)
        if n < 0:
            return self.pow_int(-n).reciprocal()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def _monotone(self, f) -> "ErrorBoundedReal":
        a, b = f(self.lo()), f(self.hi())
        if a > b:
            a, b = b, a
        v = (a + b) / 2
        return _make(v, _pad((b - a) / 2) + _slop(v))

    def exp(self) -> "ErrorBoundedReal":
        return self._monotone(mp.exp)

    def expm1(self) -> "ErrorBoundedReal":
        return self._monotone(mp.expm1)

    def log(self) -> "ErrorBoundedReal":
        if self.lo() <= 0:
            raise ValueError("log needs a positive enclosure")
        return self._monotone(mp.log)

    def log1p(self) -> "ErrorBoundedReal":
        """log(1 + x), keeping absolute accuracy when x is tiny."""
        if self.lo() <= -1:
            raise ValueError("log1p needs an enclosure above -1")
        return self._monotone(lambda x: mp.log(mp.fadd(1, x, exact=True)))

    def root(self, k: int) -> "ErrorBoundedReal":
        if self.lo() < 0:
            raise ValueError("root needs a nonnegative enclosure")
        return self._monotone(lambda x: mp.root(x, k))


def _coerce(x) -> ErrorBoundedReal:
    if isinstance(x, ErrorBoundedReal):
        return x
    return ErrorBoundedReal(mpf(x), mpf(0))
