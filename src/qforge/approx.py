"""High-precision complex balls with proven absolute error bounds.

A value is a ball in the midpoint-radius layout of Arb (Johansson, "Arb:
efficient arbitrary-precision midpoint-radius interval arithmetic", IEEE
TC 2017): Python ints re, im and rad and a binary exponent exp stand for
every complex number within rad 2**exp of (re + i im) 2**exp.  A real
value keeps im = 0, and a result is complex only if an operand is.
Default precision: 113 bits, set per value or by set_default_precision
(QFORGE_PRECISION).

Every `err` is a rigorous bound, by one rounding rule.  An operation is
done exactly on the ints, then shifted right until its largest part has
prec bits.  The shift floors both parts, each by less than one unit, so
the radius, rounded up, gains two units (_shift).  A modulus enters a
radius rounded up and a divisor's rounded down.  An exact input that fits
in prec bits carries err 0; otherwise each part floored to prec bits adds
one unit, and a cyclotomic value adds a bound on its embedding's error.
_floored is that floor on an exact ratio (n, d), returning the ball and
exponent without building a value: coerce calls it, and so do the
kernels of qforge.qseries for their exact rational parameters.
The integer kernel of qforge.qseries calls _mul, _div and _abs_up on
three ints per ball when a parameter is complex, and spells them out on
two (midpoint, radius) at im = 0 when all are real, as perfbench times
that loop.  mpmath appears only in the views `val` and `err` (built
exactly from the ints) and in the embedding of a cyclotomic value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .errors import DivisionByZero
from .exact import ExactScalar

_DEFAULT_PREC = 113
_new = object.__new__


def set_default_precision(bits: int) -> None:
    global _DEFAULT_PREC
    if bits < 64:
        raise ValueError("precision must be at least 64 bits")
    _DEFAULT_PREC = int(bits)


def default_precision() -> int:
    return _DEFAULT_PREC


# -- balls: (re, im, rad), three ints in one unit ------------------------------
def _abs_up(re: int, im: int) -> int:
    """An upper bound on |re + i im|."""
    return math.isqrt(re * re + im * im) + 1 if im else abs(re)


def _bound(b) -> int:
    """An upper bound on |v| for every v in the ball b."""
    return _abs_up(b[0], b[1]) + b[2]


def _shift(b, k: int):
    """The ball b in units of 2**k of its own.  For k > 0 each part is
    floored, which errs by less than one unit, so the radius, rounded
    up, gains two units; for k <= 0 the shift is exact."""
    re, im, rad = b
    if k > 0:
        return re >> k, im >> k, 2 - (-rad >> k)
    return re << -k, im << -k, rad << -k


def _normalized(b, exp: int, bits: int):
    """(b, exp) shifted until the largest part of b has at most `bits` bits."""
    k = max(abs(b[0]), abs(b[1]), b[2]).bit_length() - bits
    return (_shift(b, k), exp + k) if k > 0 else (b, exp)


def _mul(x, y, k: int = 0):
    """The ball x y, in units of 2**k times the product of the operands'
    units; its radius |x| ry + |y| rx + rx ry."""
    xr, xi, xe = x
    yr, yi, ye = y
    b = (xr * yr - xi * yi, xr * yi + xi * yr, _abs_up(xr, xi) * ye + _abs_up(yr, yi) * xe + xe * ye)
    return _shift(b, k) if k else b


def _div(x, y, s: int):
    """The ball x / y, in units of 2**-s times x's unit over y's; its
    radius (rx 2**s + |x / y| ry) / (|y| - ry), rounded up, plus one unit
    for each floored part.  DivisionByZero unless |y| - ry > 0."""
    xr, xi, xe = x
    yr, yi, ye = y
    norm = yr * yr + yi * yi
    low = (math.isqrt(norm) if yi else abs(yr)) - ye  # |y| - ry, rounded down
    if low <= 0:
        raise DivisionByZero("divisor not bounded away from zero")
    re = ((xr * yr + xi * yi) << s) // norm
    im = ((xi * yr - xr * yi) << s) // norm
    # the floors put |x / y| below |re + i im| + 2
    rad = (xe << s) + (_abs_up(re, im) + 2) * ye
    return re, im, 2 - (-rad // low)


# -- exact inputs ----------------------------------------------------------------
def _ratio(v):
    """An exact real input (int, Fraction, float, mpf) as (n, d) with d > 0."""
    if isinstance(v, mpmath.mpf):
        man, exp = v.man_exp  # man is |mantissa|
        man = -man if v < 0 else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    if isinstance(v, (int, Fraction, float)):
        return v.as_integer_ratio()
    raise TypeError(f"cannot convert {type(v).__name__} to ApproxScalar")


def _floor_scaled(n: int, d: int, s: int):
    """floor(n / d 2**s) and whether it is exact."""
    if s >= 0:
        n <<= s
    else:
        d <<= -s
    m, r = divmod(n, d)
    return m, not r


def _floored(n: int, d: int, prec: int, imn: int = 0, imd: int = 1):
    """The value n / d + i imn / imd (d, imd > 0) as the (ball, exp) an
    ApproxScalar at prec bits holds: both parts floored to prec bits at one
    exponent, plus one unit of radius for each part the floor changed."""
    if not (n or imn):
        return (0, 0, 0), 0
    # |n / d| lies in [2**(t-1), 2**(t+1)) for t = bits(n) - bits(d)
    top = max(n.bit_length() - d.bit_length() if n else -math.inf,
              imn.bit_length() - imd.bit_length() if imn else -math.inf)
    s = prec - top  # the larger part gets prec or prec + 1 bits
    (mr, xr), (mi, xi) = _floor_scaled(n, d, s), _floor_scaled(imn, imd, s)
    if max(abs(mr), abs(mi)).bit_length() > prec:  # floor(floor(v) / 2) = floor(v / 2)
        xr, xi = xr and not mr & 1, xi and not mi & 1
        mr, mi, s = mr >> 1, mi >> 1, s - 1
    return _normalized((mr, mi, (not xr) + (not xi)), -s, prec)


def _from_parts(re, im, prec: int, cplx: bool) -> "ApproxScalar":
    """The value re + i im, its parts given as (n, d), as _floored rounds it."""
    (rn, rd), (imn, imd) = re, im
    b, exp = _floored(rn, rd, prec, imn, imd)
    return _make(b, exp, prec, cplx)


def _embedding_error(v: ExactScalar, prec: int, exp: int) -> int:
    """(d + 1) sum |c_k| 2**(-11-prec) in units of 2**exp, rounded up: a
    bound on the error of Horner's rule in ExactScalar.to_complex(prec),
    which sums the d + 1 = phi(n) terms c_k zeta^k at prec + 16 bits, so a
    rounding errs by at most u = 2**(-15-prec): 3u |c_k| for
    c_k = num / den, 8ku for the k-th power of the computed zeta, and
    gamma_2d sum |c_k| for Horner's 2d operations (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1); (3 + 10d) u sum |c_k| to
    first order, which 16 (d + 1) u sum |c_k| covers while d u < 1/64."""
    units, exact = _floor_scaled(len(v.nums) * sum(map(abs, v.nums)), v.den, -11 - prec - exp)
    return units + (not exact)


class ApproxScalar:
    """An immutable complex ball: the value (re + i im) 2**exp, with
    (re, im, rad) = ball, within its rigorous absolute error bound
    `err` = rad 2**exp."""

    __slots__ = ("ball", "exp", "prec", "cplx")

    def __new__(cls, value, err=0, prec: int | None = None):
        x = ApproxScalar.coerce(value, prec)
        n, d = _ratio(err)
        if n < 0:
            raise ValueError("err must be non-negative")
        if not n:
            return x
        re, im, rad = x.ball
        units, exact = _floor_scaled(n, d, -x.exp)
        return _make((re, im, rad + units + (not exact)), x.exp, x.prec, x.cplx)

    def __setattr__(self, *_):
        raise AttributeError("ApproxScalar is immutable")

    def __reduce__(self):
        return _make, (self.ball, self.exp, self.prec, self.cplx)

    @staticmethod
    def coerce(v, prec: int | None = None) -> "ApproxScalar":
        if isinstance(v, ApproxScalar):
            return v
        prec = _DEFAULT_PREC if prec is None else prec
        if type(v) is int and v.bit_length() <= prec:
            return _make((v, 0, 0), 0, prec, False)
        if isinstance(v, ExactScalar):
            if not v.is_rational():
                # the embedding at prec + 16 bits, floored to prec, plus its error
                z = v.to_complex(prec)
                x = _from_parts(_ratio(z.real), _ratio(z.imag), prec, True)
                re, im, rad = x.ball
                return _make((re, im, rad + _embedding_error(v, prec, x.exp)), x.exp, prec, True)
            v = v.as_rational()
        if isinstance(v, (complex, mpmath.mpc)):
            return _from_parts(_ratio(v.real), _ratio(v.imag), prec, True)
        return _from_parts(_ratio(v), (0, 1), prec, False)

    # -- views ------------------------------------------------------------
    @property
    def val(self):
        """The midpoint: an mpf for a real value, else an mpc."""
        re, im, _ = self.ball
        if not self.cplx:
            return _mpf(re, self.exp)
        out = _new(mpmath.mpc)
        out._mpc_ = (_mpf(re, self.exp)._mpf_, _mpf(im, self.exp)._mpf_)
        return out

    @property
    def err(self):
        """The radius, an mpf."""
        return _mpf(self.ball[2], self.exp)

    def magnitude(self):
        """|val|, rounded down to a unit of the value's precision (exact if real)."""
        re, im, _ = self.ball
        return _mpf(math.isqrt(re * re + im * im) if im else abs(re), self.exp)

    def __repr__(self):
        return f"ApproxScalar({self.val}, err={mpmath.nstr(self.err, 3)})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return _sum(self, ApproxScalar.coerce(other, self.prec), 1)

    __radd__ = __add__

    def __neg__(self):
        re, im, rad = self.ball
        return _make((-re, -im, rad), self.exp, self.prec, self.cplx)

    def __sub__(self, other):
        return _sum(self, ApproxScalar.coerce(other, self.prec), -1)

    def __rsub__(self, other):
        return _sum(ApproxScalar.coerce(other, self.prec), self, -1)

    def __mul__(self, other):
        return _product(self, ApproxScalar.coerce(other, self.prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _quotient(self, ApproxScalar.coerce(other, self.prec))

    def __rtruediv__(self, other):
        return _quotient(ApproxScalar.coerce(other, self.prec), self)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return _quotient(_make((1, 0, 0), 0, self.prec, False), self ** (-e))
        out = _make((1, 0, 0), 0, self.prec, False)
        base = self
        while e:
            if e & 1:
                out = _product(out, base)
            e >>= 1
            if e:
                base = _product(base, base)
        return out


_set_ball = ApproxScalar.ball.__set__
_set_exp = ApproxScalar.exp.__set__
_set_prec = ApproxScalar.prec.__set__
_set_cplx = ApproxScalar.cplx.__set__


def _make(b, exp: int, prec: int, cplx: bool) -> ApproxScalar:
    """The ball b in units of 2**exp at prec bits (see _normalized)."""
    b, exp = _normalized(b, exp, prec)
    out = _new(ApproxScalar)
    _set_ball(out, b)
    _set_exp(out, exp)
    _set_prec(out, prec)
    _set_cplx(out, cplx)
    return out


def _mpf(man: int, exp: int):
    return mpmath.mpf((man, exp), prec=0)  # prec 0: exact


def _upper(x: ApproxScalar) -> Fraction:
    """|val| + err rounded up: a bound on |v| for all v in x."""
    u = _bound(x.ball)
    return Fraction(u << x.exp) if x.exp >= 0 else Fraction(u, 1 << -x.exp)


def _sum(x, y, sign: int) -> ApproxScalar:
    """x + y (sign 1) or x - y (sign -1), aligned to the smaller exponent."""
    (xr, xi, xe), (yr, yi, ye) = x.ball, y.ball
    d = x.exp - y.exp
    if d > 0:
        xr, xi, xe = xr << d, xi << d, xe << d
    elif d < 0:
        yr, yi, ye = yr << -d, yi << -d, ye << -d
    b = (xr + yr, xi + yi, xe + ye) if sign > 0 else (xr - yr, xi - yi, xe + ye)
    return _make(b, min(x.exp, y.exp), max(x.prec, y.prec), x.cplx or y.cplx)


def _product(x, y) -> ApproxScalar:
    return _make(_mul(x.ball, y.ball), x.exp + y.exp, max(x.prec, y.prec), x.cplx or y.cplx)


def _quotient(x, y) -> ApproxScalar:
    prec = max(x.prec, y.prec)
    (xr, xi, xe), (yr, yi, ye) = x.ball, y.ball
    # dividend bits enough for a quotient of prec + 1 bits or more
    s = max(0, prec + 2 + max(abs(yr), abs(yi)).bit_length() - max(abs(xr), abs(xi), xe).bit_length())
    return _make(_div(x.ball, y.ball, s), x.exp - y.exp - s, prec, x.cplx or y.cplx)
