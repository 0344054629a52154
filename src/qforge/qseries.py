"""q-Pochhammer symbols and the 2phi1 series.

Three evaluation routes: exact terminating summation (including the
extended definition for the exceptional parameter case), truncated
numerics with a proven error bound for non-terminating series, and
finite products that work over any ring (scalars or rational functions).

The loops of phi21_numeric and qpoch_infinite run on Python ints: each
value is a midpoint and a radius, the layout of Arb (Johansson, "Arb:
efficient arbitrary-precision midpoint-radius interval arithmetic", IEEE
TC 2017), and the series is summed in fixed point as in Johansson,
"Computing hypergeometric functions rigorously" (ACM TOMS 2019).
ApproxScalar appears only at their boundary: parameters in, one result out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import mpmath
from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_sign,
    mpf_sub,
)

from .approx import (
    _DOWN,
    _RND,
    _UP,
    ApproxScalar,
    _make,
    _raw,
    _rounding,
    _upper,
    _widened,
    default_precision,
)
from .errors import (
    InvalidDomain,
    NoConvergence,
    NotTerminating,
    ZeroDenominator,
)
from .exact import ExactScalar, _ratio

TERMINATION_BOUND = 64
_MAX_TERMS = 20000  # terms of a non-terminating numeric series


@dataclass(frozen=True)
class Phi21Params:
    """The five arguments of 2phi1(a, b; c; q, x)."""

    a: object
    b: object
    c: object
    q: object
    x: object

    def as_exact(self) -> "Phi21Params":
        return Phi21Params(*(ExactScalar.coerce(v) for v in (self.a, self.b, self.c, self.q, self.x)))

    def as_numeric(self, prec: int | None = None) -> "Phi21Params":
        return Phi21Params(*(ApproxScalar.coerce(v, prec) for v in (self.a, self.b, self.c, self.q, self.x)))

    def shifted(self, shift, steps: int = 1) -> "Phi21Params":
        """The parameters moved `steps` times along shift = (k, l, m, n):
        (a q^(k steps), b q^(l steps); c q^(m steps); q, x q^(n steps)),
        in the ring the parameters live in."""
        k, l, m, n = (s * steps for s in shift)
        q = self.q
        return Phi21Params(self.a * q**k, self.b * q**l, self.c * q**m, q, self.x * q**n)


@dataclass(frozen=True)
class SeriesValue:
    """Result of a series or infinite-product evaluation."""

    value: object
    terms_used: int
    terminated: bool
    certified = True  # every err is proven; perfbench's certified_ratio reads this


def qpoch_finite(base, q, count: int):
    """prod_{j=0}^{count-1} (1 - base*q^j); empty product is 1.

    Generic over the coefficient ring: works for Fractions, field
    elements, ApproxScalars and rational functions alike.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    out = base ** 0
    qpow = q ** 0
    for _ in range(count):
        out = out * (1 - base * qpow)
        qpow = qpow * q
    return out


def qpoch_infinite(base, q, tol: float, prec: int | None = None) -> SeriesValue:
    """(base; q)_infinity as a partial product P_M, stopped at the first M
    where the tail bound (|P_M| + err) u / (1 - u) is at most tol: with
    u = |base| |q|^M / (1 - |q|) < 1 the factors past M multiply to within
    exp(u) - 1 <= u / (1 - u) of 1.  Moduli are upper bounds |v| + err;
    u rounds up.  P_M is a block floating-point ball (see the kernel
    below), so its error stays relative however small it gets."""
    prec = default_precision() if prec is None else prec
    b = ApproxScalar.coerce(base, prec)
    qq = ApproxScalar.coerce(q, prec)
    absq = _upper(qq)
    if not mpf_lt(absq, fone):
        raise InvalidDomain("qpoch_infinite requires |q| < 1")
    wp = prec + _GUARD
    one = 1 << wp
    cplx = _is_complex(b) or _is_complex(qq)
    bq, qb = _ball(b, wp), _ball(qq, wp)
    qa = _ceil_units(absq, wp)
    tm, te = _rounded_tol(tol, prec)
    # u = un 2**ue, rounded up, with un kept at wp bits
    _, un, ue, _ = mpf_div(_upper(b), mpf_sub(fone, absq, prec, _DOWN), prec, _UP)
    un = int(un)
    # P_m = (re + i im +- rad) 2**exp
    re, im, rad, exp = 1, 0, 0, 0
    for m in range(100 * prec + 1):
        if un:
            k = wp - un.bit_length()
            un, ue = un << k, ue - k
        if ue <= 0 and un < 1 << -ue:  # u < 1
            # the tail bound is top 2**exp / den
            top = (_abs_up(re, im) + rad) * un
            den = (1 << -ue) - un
            shift = exp - te
            if top << max(shift, 0) <= (tm * den) << max(-shift, 0):
                tail = mpf_div(from_man_exp(top, exp), from_int(den), prec, _UP)
                return SeriesValue(_widened(_to_approx(re, im, rad, exp, prec, cplx), tail), m, False)
        # P_(m+1) = P_m (1 - b q^m), its largest part shifted back to wp bits
        fr, fi, frad = bq
        fr = one - fr
        nr, ni = re * fr + im * fi, im * fr - re * fi
        rad = _abs_up(re, im) * frad + _abs_up(fr, fi) * rad + rad * frad
        k = max(abs(nr), abs(ni), rad).bit_length() - wp
        if k > 0:
            re, im, rad, exp = nr >> k, ni >> k, 2 - (-rad >> k), exp - wp + k
        else:
            re, im, exp = nr, ni, exp - wp
        bq = _mul(bq, qb, wp)
        un = -(-un * qa >> wp)
    raise NoConvergence("qpoch_infinite failed to meet tolerance")


def detect_termination(a, b, q):
    """Smallest r <= TERMINATION_BOUND with a*q^r = 1 or b*q^r = 1 exactly, else None."""
    found = [r for r in (_termination_exponent(v, q) for v in (a, b)) if r is not None]
    return min(found, default=None)


def _termination_exponent(v, q):
    """The r <= TERMINATION_BOUND with v q^r = 1, else None.

    For rationals v = vn / vd and q = qn / qd in lowest terms, v q^r = 1
    means vn qn^r = vd qd^r, so |vn| = qd^r and vd = |qn|^r: unless
    |q| is 0 or 1, one of qd, |qn| is at least 2 and gives the only
    candidate r by its logarithm, which one exact power checks.  Other
    values (cyclotomic ones, q in {0, 1, -1}) walk r = 0, 1, ..."""
    rv, rq = _ratio(v), _ratio(q)
    if rv is not None and rq is not None and abs(rq[0]) not in (0, rq[1]):
        (vn, vd), (qn, qd) = rv, rq
        base, power = (qd, abs(vn)) if qd > 1 else (abs(qn), vd)
        if power == 0:
            return None
        r = round(math.log(power) / math.log(base))
        return r if 0 <= r <= TERMINATION_BOUND and vn * qn**r == vd * qd**r else None
    acc = v
    for r in range(TERMINATION_BOUND + 1):
        if acc == 1:
            return r
        acc = acc * q
    return None


def _terms(p: Phi21Params, one):
    """The terms t_1, t_2, ... of 2phi1 at p (t_0 = one), each from the last:

        t_i = t_(i-1) (1 - a q^(i-1)) (1 - b q^(i-1)) x / ((1 - q^i) (1 - c q^(i-1)))

    in the ring of p and `one`.  Raises ZeroDenominator before the first
    term whose denominator factor vanishes."""
    term = one
    aq, bq, cq, qq = p.a, p.b, p.c, one
    for i in count(1):
        qq = qq * p.q  # q^i
        den1 = one - qq
        den2 = one - cq
        if den1 == 0 or den2 == 0:
            raise ZeroDenominator(
                f"denominator factor vanishes at i={i} within the summation range"
            )
        term = term * (one - aq) * (one - bq) / (den1 * den2) * p.x
        yield term
        aq = aq * p.q
        bq = bq * p.q
        cq = cq * p.q


def phi21_exact(p: Phi21Params) -> SeriesValue:
    """Exact evaluation of a terminating 2phi1 (standard or exceptional case).

    r is decided exactly, on a, b and q as ExactScalars.  Sums the terms
    i = 0..r; every denominator factor (1 - c*q^(i-1)) and (1 - q^i) is
    asserted nonzero before division, so the exceptional case c = q^(-s)
    with r < s is covered and anything else raises ZeroDenominator.
    """
    p = p.as_exact()
    r = _exact_termination(p)
    if r is None:
        raise NotTerminating(f"no terminating exponent r <= {TERMINATION_BOUND} detected")
    one = ExactScalar.from_rational(1)
    return SeriesValue(sum(islice(_terms(p, one), r), one), r + 1, True)


def phi21_numeric(p: Phi21Params, tol: float, prec: int | None = None) -> SeriesValue:
    """Truncated 2phi1 for |q| < 1 with a proven error bound.

    Stops at the first index i where the last three terms are below tol
    relative to the running partial sum and _tail_bound proves a bound on
    the rest, which joins the err.  As |x| < 1 that holds for i large
    enough; _MAX_TERMS bounds the search.

    A terminating series is summed to its last term.  Termination is
    decided exactly, by detect_termination on the a, b and q given, before
    they are rounded to prec bits; an approximate a or b never counts as
    terminating.
    """
    prec = default_precision() if prec is None else prec
    term_limit = _exact_termination(p)
    p = p.as_numeric(prec)
    if p.q.magnitude() >= 1:
        raise InvalidDomain("phi21_numeric requires |q| < 1")
    if term_limit is None and p.x.magnitude() >= 1:
        raise InvalidDomain("phi21_numeric requires |x| < 1 for non-terminating series")

    wp = prec + _GUARD
    one = 1 << wp
    params = (p.a, p.b, p.c, p.q, p.x)
    cplx = any(map(_is_complex, params))
    terms = _ball_terms(*(_ball(v, wp) for v in params), wp)
    if term_limit is not None:
        re, im, rad = map(sum, zip((one, 0, 0), *islice(terms, term_limit)))
        return SeriesValue(_to_approx(re, im, rad, -wp, prec, cplx), term_limit + 1, True)
    bounds = tuple(map(_upper, (p.q, p.a, p.b, p.c, p.x)))
    # |t| < tol (|total| + 1), in units of 2**-wp with tol >= tm 2**te
    tm, te = _rounded_tol(tol, prec)
    left, tm = max(-te, 0), tm << max(te, 0)
    re, im, rad = one, 0, 0
    small_streak = 0
    for i, (tr, ti, trad) in enumerate(islice(terms, _MAX_TERMS - 1), 1):
        re, im, rad = re + tr, im + ti, rad + trad
        small = _abs_up(tr, ti) << left < tm * (_abs_up(re, im) + one)
        small_streak = small_streak + 1 if small else 0
        if small_streak >= 3:
            last = from_man_exp(_abs_up(tr, ti) + trad, -wp)
            if (tail := _tail_bound(bounds, last, i, prec)) is not None:
                return SeriesValue(_widened(_to_approx(re, im, rad, -wp, prec, cplx), tail), i, False)
    raise NoConvergence(f"no convergence after {_MAX_TERMS} terms")


def _exact_termination(p: Phi21Params):
    exact = (int, Fraction, ExactScalar)
    ab = [v for v in (p.a, p.b) if isinstance(v, exact)]
    if not isinstance(p.q, exact) or not ab:
        return None
    # with one exact parameter, checking it twice checks it alone
    return detect_termination(ab[0], ab[-1], p.q)


def _tail_bound(bounds, last, i, prec):
    """A bound (raw mpf) on |t_(i+1)| + |t_(i+2)| + ..., or None unless
    rho < 1: for j >= i, |t_(j+1) / t_j| <= rho = |x| (1 + |a| |q|^i)
    (1 + |b| |q|^i) / ((1 - |q|^(i+1)) (1 - |c| |q|^i)), so the tail is at
    most |t_i| rho / (1 - rho).  `bounds` holds upper bounds on |q|, |a|,
    |b|, |c|, |x| and `last` one on |t_i| (raw mpfs); bound operations
    round up (divisors down), so it holds for the exact values."""
    absq, a, b, c, x = bounds
    qi = mpf_pow_int(absq, i, prec, _UP)
    den1 = mpf_sub(fone, mpf_mul(qi, absq, prec, _UP), prec, _DOWN)
    den2 = mpf_sub(fone, mpf_mul(c, qi, prec, _UP), prec, _DOWN)
    if mpf_sign(den1) <= 0 or mpf_sign(den2) <= 0:
        return None
    num = mpf_mul(x, mpf_add(fone, mpf_mul(a, qi, prec, _UP), prec, _UP), prec, _UP)
    num = mpf_mul(num, mpf_add(fone, mpf_mul(b, qi, prec, _UP), prec, _UP), prec, _UP)
    rho = mpf_div(num, mpf_mul(den1, den2, prec, _DOWN), prec, _UP)
    if not mpf_lt(rho, fone):
        return None
    return mpf_div(mpf_mul(last, rho, prec, _UP), mpf_sub(fone, rho, prec, _DOWN), prec, _UP)


# -- the integer ball kernel of phi21_numeric and qpoch_infinite --------------
#
# A ball is a midpoint re + i im and a radius rad, all ints in units of
# 2**-wp with wp = prec + _GUARD bits; a real input keeps im = 0 throughout.
# The rules are those of approx.py on a fixed grid: a floor shift errs by
# less than one unit, which the radius gains for each part shifted; every
# radius rounds up; a modulus enters a radius as the upper bound
# isqrt(re^2 + im^2) + 1 and a divisor's as the lower bound
# isqrt(re^2 + im^2) - rad (|re| and |re| - rad when im = 0, exactly).
# The series is summed at this absolute scale, as its sum starts at 1.  The
# running product of qpoch_infinite, which can be tiny ((9/10; 99/100)_inf
# is about 2.2e-57), is a block floating-point ball (re + i im +- rad)
# 2**exp, shifted back after each factor so that its largest part has wp
# bits.

_GUARD = 24  # bits the kernel works at beyond prec


def _is_complex(v: ApproxScalar) -> bool:
    return len(_raw(v.val)) == 2


def _floor_units(x, wp: int) -> int:
    """floor(x 2**wp) for the raw mpf x."""
    sign, man, exp, _ = x
    man = -int(man) if sign else int(man)
    k = exp + wp
    return man << k if k >= 0 else man >> -k


def _ceil_units(x, wp: int) -> int:
    """ceil(x 2**wp) for the raw mpf x."""
    return -_floor_units(mpf_neg(x), wp)


def _ball(v: ApproxScalar, wp: int):
    """v as a ball: each part floored to units of 2**-wp, err rounded up
    plus one unit per floored part."""
    r = _raw(v.val)
    re, im = r if len(r) == 2 else (r, fzero)
    return _floor_units(re, wp), _floor_units(im, wp), _ceil_units(v.err._mpf_, wp) + 2


def _abs_up(re: int, im: int) -> int:
    """An upper bound on |re + i im|."""
    return math.isqrt(re * re + im * im) + 1 if im else abs(re)


def _mul(x, y, wp: int):
    """The ball x y; its radius |x| ry + |y| rx + rx ry."""
    xr, xi, xe = x
    yr, yi, ye = y
    rad = _abs_up(xr, xi) * ye + _abs_up(yr, yi) * xe + xe * ye
    return (xr * yr - xi * yi) >> wp, (xr * yi + xi * yr) >> wp, 2 - (-rad >> wp)


def _div(x, y, wp: int):
    """The ball x / y; its radius (rx + |x / y| ry) / (|y| - ry)."""
    xr, xi, xe = x
    yr, yi, ye = y
    norm = yr * yr + yi * yi
    low = (math.isqrt(norm) if yi else abs(yr)) - ye  # |y| - ry, rounded down
    if low <= 0:
        raise ZeroDenominator("denominator not bounded away from zero")
    re = ((xr * yr + xi * yi) << wp) // norm
    im = ((xi * yr - xr * yi) << wp) // norm
    # the floors put |x / y| below |re + i im| + 2
    rad = (xe << wp) + (_abs_up(re, im) + 2) * ye
    return re, im, 2 - (-rad // low)


def _contains_zero(x) -> bool:
    re, im, rad = x
    return re * re + im * im <= rad * rad


def _one_minus(x, one: int):
    re, im, rad = x
    return one - re, -im, rad


def _ball_terms(a, b, c, q, x, wp: int):
    """The terms t_1, t_2, ... of 2phi1 as balls, by the recurrence of
    _terms; ZeroDenominator before the first term whose denominator factor
    ball contains 0."""
    one = 1 << wp
    term = qi = (one, 0, 0)
    aq, bq, cq = a, b, c
    for i in count(1):
        qi = _mul(qi, q, wp)  # q^i
        den1 = _one_minus(qi, one)
        den2 = _one_minus(cq, one)
        if _contains_zero(den1) or _contains_zero(den2):
            raise ZeroDenominator(
                f"denominator factor vanishes at i={i} within the summation range"
            )
        num = _mul(_mul(_one_minus(aq, one), _one_minus(bq, one), wp), x, wp)
        term = _div(_mul(term, num, wp), _mul(den1, den2, wp), wp)
        yield term
        aq, bq, cq = _mul(aq, q, wp), _mul(bq, q, wp), _mul(cq, q, wp)


def _rounded_tol(tol, prec: int):
    """(m, e) with m 2**e the tolerance tol rounded down to prec bits."""
    sign, man, exp, _ = mpmath.mpf(tol, prec=prec, rounding=_DOWN)._mpf_
    return (-int(man) if sign else int(man)), exp


def _to_approx(re, im, rad, exp, prec: int, cplx: bool) -> ApproxScalar:
    """The ball (re + i im +- rad) 2**exp at prec bits, a real mpf unless
    cplx; its err gains the rounding allowance |v| 2**(2-prec), which
    covers the rounding of the midpoint."""
    v = from_man_exp(re, exp, prec, _RND)
    if cplx:
        v = (v, from_man_exp(im, exp, prec, _RND))
    return _make(v, mpf_add(from_man_exp(rad, exp), _rounding(v, prec), prec, _UP), prec)
