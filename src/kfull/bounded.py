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

Each operation above carries its own envelope: _slop for the rounding of
its value and _pad for the rounding of its radius.  A fixed linear sum
sum_i x_i * w_i built from them pays one multiply and one add per term, and
so one _slop per partial sum.  dot() fuses the whole sum instead.  It reads
every mpf as an exact integer mantissa and exponent, sums the midpoint
products and the radius terms |x| r_w + |w| r_x + r_x r_w exactly as Python
integers, rounds the midpoint S to nearest once, adds the exact rounding
error |S - v| to the exact radius sum and rounds that sum up once.  The
result is sound: [v - r, v + r] contains [S - R, S + R], and R bounds every
product of points of the operand enclosures.  Its radius is never larger
than the chain's: it is at most (R + eps |v| / 2)(1 + eps), while the chain
pads its rounded R by 8 eps and its last _slop alone adds 4 eps |v|.
A weight that is a plain Python int is exact; any other plain number
(float, mpf, Fraction) is refused, because its rounding would go uncounted.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_ceiling, round_nearest


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


def _exact_sum(terms):
    """(sum of m * 2^e, common exponent) over (m, e) pairs, exactly."""
    if not terms:
        return 0, 0
    e0 = min(e for _, e in terms)
    return sum(m << (e - e0) for m, e in terms), e0


def dot(pairs) -> ErrorBoundedReal:
    """sum_i x_i * w_i over (x_i, w_i) pairs, summed exactly and rounded once.

    Each x_i is an ErrorBoundedReal; each w_i is an ErrorBoundedReal or a
    Python int, taken as exact.  The value is rounded to nearest and the
    radius up, both at the current precision (see the module docstring)."""
    mids, rads = [], []
    for x, w in pairs:
        xs, xm, xe, xb = x.value._mpf_
        _, rm, re, rb = x.radius._mpf_
        if isinstance(w, ErrorBoundedReal):
            ws, wm, we, wb = w.value._mpf_
            _, wr, wre, wrb = w.radius._mpf_
        elif isinstance(w, int):
            ws, wm, we, wb, wr, wre, wrb = int(w < 0), abs(w), 0, 0, 0, 0, 0
        else:
            raise TypeError(f"dot weight must be an int or ErrorBoundedReal, "
                            f"not {type(w).__name__}")
        # a negative bit count marks mpmath's inf and nan
        if xb < 0 or rb < 0 or wb < 0 or wrb < 0:
            raise ValueError("dot needs finite operands")
        if xm and wm:
            mids.append((-xm * wm if xs ^ ws else xm * wm, xe + we))
        if rm and wm:
            rads.append((rm * wm, re + we))
        if wr:
            if xm:
                rads.append((xm * wr, xe + wre))
            if rm:
                rads.append((rm * wr, re + wre))
    prec = mp.prec
    S, se = _exact_sum(mids)
    R, er = _exact_sum(rads)
    v = from_man_exp(S, se, prec, round_nearest)
    vs, vm, ve, _ = v
    err = abs(S - ((-vm if vs else vm) << (ve - se)))
    R, er = _exact_sum(((R, er), (err, se)))
    return _make(mp.make_mpf(v), mp.make_mpf(from_man_exp(R, er, prec, round_ceiling)))
