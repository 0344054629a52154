"""High-precision complex scalars with proven absolute error bounds.

Every `err` is a rigorous bound: exact inputs carry their rounding error,
operations propagate their operands' errors, and a truncated series or
product adds a proven bound on the rest (`_widened`).  Default mantissa:
113 bits, set per value or by set_default_precision (QFORGE_PRECISION).

A value is a midpoint and a radius (the ball layout of Arb): `val` is an
mpmath mpf or mpc, `err` an mpf.  The operators update both with
mpmath's libmp kernels (mpf_add, mpc_mul, mpc_div, mpc_abs, ...) called
at an explicit precision, which is what the mpf and mpc operators run
inside mpmath.workprec(prec), without switching mpmath's global context
on every operation.  Values round to nearest.  Every operation on an
error bound rounds up (the moduli it multiplies included), and the
divisor bound |y| - ey of a quotient rounds down, so a propagated bound
never falls below the exact one.  The rounding allowance
|v| * 2**(2-prec) of a result is an exponent shift of |v|, exact like
the multiplication it replaces.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import (
    fone,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_div,
    mpc_div_mpf,
    mpc_mpf_div,
    mpc_mul,
    mpc_mul_mpf,
    mpc_neg,
    mpc_sub,
    mpc_sub_mpf,
    mpf_abs,
    mpf_add,
    from_int,
    mpf_div,
    mpf_le,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    to_rational,
)

from .errors import DivisionByZero
from .exact import ExactScalar

_DEFAULT_PREC = 113
_RND = "n"  # values: round to nearest, mpmath's default rounding
_UP = "c"  # error bounds: round toward +infinity
_DOWN = "f"  # the divisor bound of a quotient: round toward -infinity
_MPF = mpmath.mpf
_MPC = mpmath.mpc
_new = object.__new__


def set_default_precision(bits: int) -> None:
    global _DEFAULT_PREC
    if bits < 64:
        raise ValueError("precision must be at least 64 bits")
    _DEFAULT_PREC = int(bits)


def default_precision() -> int:
    return _DEFAULT_PREC


def _to_mpc(v, prec: int):
    """v rounded to prec bits: an mpf if v is real (a rational
    ExactScalar included), else an mpc."""
    if isinstance(v, ExactScalar) and v.is_rational():
        v = v.as_rational()
    with mpmath.workprec(prec):
        if isinstance(v, Fraction):
            return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
        if isinstance(v, (int, float, mpmath.mpf)):
            return mpmath.mpf(v)
        if isinstance(v, (complex, mpmath.mpc)):
            return mpmath.mpc(v)
        to_c = getattr(v, "to_complex", None)
        if to_c is not None:
            return +to_c(prec)
    raise TypeError(f"cannot convert {type(v).__name__} to ApproxScalar")


# -- raw libmp values: an mpf is a 4-tuple, an mpc a pair of them -------------
def _raw(v):
    return v._mpf_ if type(v) is _MPF else v._mpc_


def _wrap(r):
    if len(r) == 2:
        v = _new(_MPC)
        v._mpc_ = r
    else:
        v = _new(_MPF)
        v._mpf_ = r
    return v


def _abs(r, prec, rnd):
    # a real value has at most prec bits, so its exact |r| is |r| at prec
    return mpc_abs(r, prec, rnd) if len(r) == 2 else mpf_abs(r)


def _rounding(r, prec):
    """|r| * 2**(2-prec): the allowance for rounding a result to prec bits."""
    return mpf_shift(_abs(r, prec, _UP), 2 - prec)


def _embedding_error(v: ExactScalar, prec: int):
    """(d + 1) sum |c_k| 2**(-11-prec): a bound on the error of Horner's
    rule in ExactScalar.to_complex(prec), which sums the d + 1 = phi(n)
    terms c_k zeta^k at prec + 16 bits, so a rounding errs by at most
    u = 2**(-15-prec): 3u |c_k| for c_k = num / den, 8ku for the k-th power
    of the computed zeta, and gamma_2d sum |c_k| for Horner's 2d
    operations (Higham, Accuracy and Stability of Numerical Algorithms,
    5.1); (3 + 10d) u sum |c_k| to first order, which 16 (d + 1) u sum |c_k|
    covers while d u < 1/64."""
    total = mpf_div(from_int(sum(map(abs, v.nums)), prec, _UP), from_int(v.den, prec, _DOWN), prec, _UP)
    return mpf_shift(mpf_mul(total, from_int(len(v.nums)), prec, _UP), -11 - prec)


def _is_exact(v, r) -> bool:
    """Whether r, v rounded to prec bits, equals v (as a value that
    already has prec bits does, so rebuilding one keeps its err)."""
    if isinstance(v, ExactScalar):
        if not v.is_rational():
            return False
        v = v.as_rational()
    parts = (v.real, v.imag) if isinstance(v, (complex, _MPC)) else (v, 0)
    parts = [Fraction(*to_rational(x._mpf_)) if isinstance(x, _MPF) else x for x in parts]
    got = r if len(r) == 2 else (r, fzero)
    return all(Fraction(*to_rational(y)) == x for x, y in zip(parts, got))


def _upper(x):
    """|val| + err rounded up (raw mpf): a bound on |v| for all v in x."""
    return mpf_add(_abs(_raw(x.val), x.prec, _UP), x.err._mpf_, x.prec, _UP)


def _widened(x, tail):
    """x with the raw mpf bound `tail` on a neglected part added to its err."""
    return _make(_raw(x.val), mpf_add(x.err._mpf_, tail, x.prec, _UP), x.prec)


# The kernel the mpf/mpc operator calls for each pair of operand kinds,
# indexed by (x is complex) + 2 * (y is complex).  The parts of a value
# have at most prec bits (the constructor rounds them to prec), so
# negating y is exact and one mpf_sub/mpc_sub gives the bits of x + (-y).
_ADD = (mpf_add, mpc_add_mpf, lambda x, y, prec, rnd: mpc_add_mpf(y, x, prec, rnd), mpc_add)
_SUB = (mpf_sub, mpc_sub_mpf, lambda x, y, prec, rnd: mpc_sub((x, fzero), y, prec, rnd), mpc_sub)
_MUL = (mpf_mul, mpc_mul_mpf, lambda x, y, prec, rnd: mpc_mul_mpf(y, x, prec, rnd), mpc_mul)
_DIV = (mpf_div, mpc_div_mpf, mpc_mpf_div, mpc_div)


def _kernel(table, xr, yr, prec):
    return table[(len(xr) == 2) + 2 * (len(yr) == 2)](xr, yr, prec, _RND)


class ApproxScalar:
    """An immutable complex value with a rigorous absolute error bound `err`."""

    __slots__ = ("val", "err", "prec")

    def __new__(cls, value, err=0, prec: int | None = None):
        prec = _DEFAULT_PREC if prec is None else int(prec)
        r = _raw(_to_mpc(value, prec))
        e = _MPF(err, prec=prec, rounding=_UP)._mpf_
        if not _is_exact(value, r):  # add what coerce's err bounds
            e = mpf_add(e, ApproxScalar.coerce(value, prec).err._mpf_, prec, _UP)
        return _make(r, e, prec)

    def __setattr__(self, *_):
        raise AttributeError("ApproxScalar is immutable")

    def __reduce__(self):  # val and err have prec bits: rebuilding keeps them
        return ApproxScalar, (self.val, self.err, self.prec)

    @staticmethod
    def coerce(v, prec: int | None = None) -> "ApproxScalar":
        if isinstance(v, ApproxScalar):
            return v
        # exact inputs carry their rounding error (and a cyclotomic one its embedding's)
        prec = _DEFAULT_PREC if prec is None else prec
        if type(v) is int and v == 1:
            return _one(prec)
        r = _raw(_to_mpc(v, prec))
        e = _rounding(r, prec)
        if isinstance(v, ExactScalar) and not v.is_rational():
            e = mpf_add(e, _embedding_error(v, prec), prec, _UP)
        return _make(r, e, prec)

    # -- views ------------------------------------------------------------
    def magnitude(self):
        """|val| at the value's own precision."""
        return _wrap(_abs(_raw(self.val), self.prec, _RND))

    def __repr__(self):
        return f"ApproxScalar({self.val}, err={mpmath.nstr(self.err, 3)})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return _sum(self, ApproxScalar.coerce(other, self.prec), _ADD)

    __radd__ = __add__

    def __neg__(self):
        r = _raw(self.val)
        v = mpc_neg(r, self.prec, _RND) if len(r) == 2 else mpf_neg(r, self.prec, _RND)
        return _make(v, self.err._mpf_, self.prec)

    def __sub__(self, other):
        return _sum(self, ApproxScalar.coerce(other, self.prec), _SUB)

    def __rsub__(self, other):
        return _sum(ApproxScalar.coerce(other, self.prec), self, _SUB)

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
            return _quotient(_one(self.prec), self ** (-e))
        out = _one(self.prec)
        base = self
        while e:
            if e & 1:
                out = _product(out, base)
            e >>= 1
            if e:
                base = _product(base, base)
        return out

    def to_complex(self, prec: int | None = None):
        return self.val


def _make(v, e, prec) -> ApproxScalar:
    """An ApproxScalar from raw libmp values already rounded to prec."""
    if e[0]:  # the sign bit: err < 0
        raise ValueError("err must be non-negative")
    out = _new(ApproxScalar)
    _set_val(out, _wrap(v))
    _set_err(out, _wrap(e))
    _set_prec(out, prec)
    return out


_set_val = ApproxScalar.val.__set__
_set_err = ApproxScalar.err.__set__
_set_prec = ApproxScalar.prec.__set__

_ONES: dict[int, ApproxScalar] = {}


def _one(prec: int) -> ApproxScalar:
    """coerce(1, prec): 1 with err 2**(2-prec), built once per precision."""
    one = _ONES.get(prec)
    if one is None:
        one = _ONES[prec] = _make(fone, mpf_shift(fone, 2 - prec), prec)
    return one


def _sum(x, y, table) -> ApproxScalar:
    """x + y (table _ADD) or x - y (table _SUB)."""
    prec = x.prec if x.prec >= y.prec else y.prec
    v = _kernel(table, _raw(x.val), _raw(y.val), prec)
    # ex + ey + rounding
    e = mpf_add(x.err._mpf_, y.err._mpf_, prec, _UP)
    e = mpf_add(e, _rounding(v, prec), prec, _UP)
    return _make(v, e, prec)


def _product(x, y) -> ApproxScalar:
    prec = x.prec if x.prec >= y.prec else y.prec
    xr, yr = _raw(x.val), _raw(y.val)
    xe, ye = x.err._mpf_, y.err._mpf_
    v = _kernel(_MUL, xr, yr, prec)
    # |x| ey + |y| ex + ex ey + rounding
    e = mpf_add(mpf_mul(_abs(xr, prec, _UP), ye, prec, _UP),
                mpf_mul(_abs(yr, prec, _UP), xe, prec, _UP), prec, _UP)
    e = mpf_add(e, mpf_mul(xe, ye, prec, _UP), prec, _UP)
    e = mpf_add(e, _rounding(v, prec), prec, _UP)
    return _make(v, e, prec)


def _quotient(x, y) -> ApproxScalar:
    prec = x.prec if x.prec >= y.prec else y.prec
    xr, yr = _raw(x.val), _raw(y.val)
    ye = y.err._mpf_
    ay = _abs(yr, prec, _DOWN)
    if ay == fzero or mpf_le(ay, ye):
        raise DivisionByZero("divisor not bounded away from zero")
    v = _kernel(_DIV, xr, yr, prec)
    # (ex + |v| ey) / (|y| - ey) + rounding
    av = _abs(v, prec, _UP)
    e = mpf_add(x.err._mpf_, mpf_mul(av, ye, prec, _UP), prec, _UP)
    e = mpf_div(e, mpf_sub(ay, ye, prec, _DOWN), prec, _UP)
    e = mpf_add(e, mpf_shift(av, 2 - prec), prec, _UP)
    return _make(v, e, prec)
