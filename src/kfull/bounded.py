"""Real numbers carrying a guaranteed enclosure radius.

An ErrorBoundedReal holds a working-precision value v and a radius r >= 0
such that the mathematically exact quantity lies in [v - r, v + r].  All
arithmetic happens at the caller's current mpmath precision; values are
mpf, so enclosures survive context changes once created.

+, - and * are one- or two-term dot()s.  dot reads every mpf as an exact
integer mantissa and exponent, sums the midpoint products and the radius
terms |x| r_w + |w| r_x + r_x r_w exactly as Python integers, rounds the
midpoint S to nearest once (the value mpf arithmetic returns), adds the
exact rounding error |S - v| to the exact radius sum and rounds that up
once, as Arb does (F. Johansson, IEEE Trans. Computers 66(8), 2017), so
[v - r, v + r] contains every product of points of the operands.  A plain
operand (int, float, Fraction, mpf) enters as the nearest mpf, with the
exact conversion error, rounded up, as its radius; exact() is that
coercion, and contains() compares exactly.  A dot weight may be a Python
int, taken exactly; any other plain weight is refused, since its rounding
would go uncounted.

The reciprocal and the monotone maps (exp, expm1, log, log1p, kth root)
evaluate mpmath at the endpoints, rounded to nearest, and widened() adds
bounds computed that way; they keep an envelope, _slop for the rounding of
the value and _pad for that of the radius.  The public constructor keeps
an mpf that fits the current precision bit for bit; any other value enters
as the nearest mpf with its conversion error added to the radius, which is
rounded up, so the enclosure holds every point of the one it was given.
It rejects a negative radius.  The results of the operations are built by
_make without those steps, so negation and widened() keep an operand's
fields bit for bit.  clipped() cuts an enclosure to a range known a priori,
and keeps one that lies inside bit for bit as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_ceiling, round_nearest, to_rational


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
        # an mpf that fits the current precision is kept bit for bit; any
        # other value rounds to nearest, its conversion error joins the
        # radius, and any other radius rounds up
        prec = mp.prec
        v, r = self.value, self.radius
        if not (isinstance(r, mpf) and r._mpf_[3] <= prec):
            r = _rational(r)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if not (isinstance(v, mpf) and v._mpf_[3] <= prec):
            x = _coerce(v)
            v = x.value
            if x.radius:
                r = _rational(r) + _rational(x.radius)
        if not isinstance(r, mpf):
            r = _round_up(r)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "radius", r)

    # -- enclosure queries ------------------------------------------------

    # endpoints are formed exactly: rounding them at context precision would
    # silently absorb radii smaller than value * eps

    def lo(self) -> mpf:
        return mp.fsub(self.value, self.radius, exact=True)

    def hi(self) -> mpf:
        return mp.fadd(self.value, self.radius, exact=True)

    def contains(self, x) -> bool:
        """True when the exact value of x lies in the enclosure."""
        x = _rational(x)
        return _rational(self.lo()) <= x <= _rational(self.hi())

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
        """x at the current precision: the nearest mpf, with the exact
        conversion error, rounded up, as the radius (0 when x fits)."""
        return _coerce(x)

    def widened(self, extra) -> "ErrorBoundedReal":
        return _make(self.value, _pad(self.radius + abs(mpf(extra))))

    def clipped(self, lo, hi) -> "ErrorBoundedReal":
        """The enclosure cut to [lo, hi] (ints or mpfs, read exactly), a range
        the exact value is known to lie in: itself, bit for bit, where it
        lies inside; else the overlap, its midpoint rounded to nearest and
        its radius up.  ArithmeticError when the two do not meet."""
        a, b = self.lo(), self.hi()
        if lo <= a and b <= hi:
            return self
        a, b = max(a, lo), min(b, hi)
        if a > b:
            raise ArithmeticError(f"{self!r} lies outside its a-priori range "
                                  f"[{mp.nstr(lo, 3)}, {mp.nstr(hi, 3)}]")
        v = mp.fmul(mp.fadd(a, b, exact=True), 0.5)
        return _make(v, max(mp.fsub(v, a, rounding="c"), mp.fsub(b, v, rounding="c")))

    def __add__(self, other):
        return dot(((self, 1), (_coerce(other), 1)))

    __radd__ = __add__

    def __neg__(self):
        return _make(mp.fneg(self.value, exact=True), self.radius)

    def __sub__(self, other):
        return dot(((self, 1), (_coerce(other), -1)))

    def __rsub__(self, other):
        return dot(((_coerce(other), 1), (self, -1)))

    def __mul__(self, other):
        return dot(((self, _coerce(other)),))

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


def _rational(x) -> Fraction:
    """x exactly: a Python number or decimal string by Fraction, an mpf by
    its mantissa and exponent, anything else (an mpmath constant) as mpf(x)."""
    if isinstance(x, (int, float, Fraction, str)):
        return Fraction(x)
    if not isinstance(x, mpf):
        x = mpf(x)
    if x._mpf_[3] < 0:  # inf or nan
        raise ValueError(f"{x} has no exact rational value")
    return Fraction(*to_rational(x._mpf_))


def _round_up(q: Fraction) -> mpf:
    """The rational q rounded up to the current precision."""
    return mp.make_mpf(from_rational(q.numerator, q.denominator, mp.prec, round_ceiling))


def _coerce(x) -> ErrorBoundedReal:
    """x as an enclosure at the current precision: the nearest mpf, with the
    exact conversion error, rounded up, as its radius."""
    if isinstance(x, ErrorBoundedReal):
        return x
    q = _rational(x)
    v = from_rational(q.numerator, q.denominator, mp.prec, round_nearest)
    return _make(mp.make_mpf(v), _round_up(abs(q - Fraction(*to_rational(v)))))


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
    # an exact zero sum rounds to mpmath's zero, whose exponent is 0
    err = abs(S - ((-vm if vs else vm) << (ve - se))) if vm else 0
    R, er = _exact_sum(((R, er), (err, se)))
    return _make(mp.make_mpf(v), mp.make_mpf(from_man_exp(R, er, prec, round_ceiling)))
