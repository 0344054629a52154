"""q-Pochhammer symbols and the 2phi1 series.

Three evaluation routes: exact terminating summation (including the
extended definition for the exceptional parameter case), truncated
numerics with a proven error bound for non-terminating series, and
finite products that work over any ring (scalars or rational functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import mpmath
from mpmath.libmp import fone, mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul, mpf_pow_int, mpf_sign, mpf_sub

from .approx import _DOWN, _UP, ApproxScalar, _upper, _widened, default_precision
from .errors import (
    InvalidDomain,
    NoConvergence,
    NotTerminating,
    ZeroDenominator,
)
from .exact import ExactScalar

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
    bound operations round up (divisors down)."""
    prec = default_precision() if prec is None else prec
    b = ApproxScalar.coerce(base, prec)
    qq = ApproxScalar.coerce(q, prec)
    absq = _upper(qq)
    if not mpf_lt(absq, fone):
        raise InvalidDomain("qpoch_infinite requires |q| < 1")
    tol = mpmath.mpf(tol, prec=prec, rounding=_DOWN)._mpf_
    u = mpf_div(_upper(b), mpf_sub(fone, absq, prec, _DOWN), prec, _UP)
    partial = qpow = ApproxScalar.coerce(1, prec)
    for m in range(100 * prec + 1):
        if mpf_lt(u, fone):
            tail = mpf_div(mpf_mul(_upper(partial), u, prec, _UP),
                           mpf_sub(fone, u, prec, _DOWN), prec, _UP)
            if mpf_le(tail, tol):
                return SeriesValue(_widened(partial, tail), m, False)
        partial = partial * (1 - b * qpow)
        qpow = qpow * qq
        u = mpf_mul(u, absq, prec, _UP)
    raise NoConvergence("qpoch_infinite failed to meet tolerance")


def detect_termination(a, b, q):
    """Smallest r <= TERMINATION_BOUND with a*q^r = 1 or b*q^r = 1 exactly, else None."""
    best = None
    for v in (a, b):
        acc = v
        for r in range(TERMINATION_BOUND + 1):
            if acc == 1:
                if best is None or r < best:
                    best = r
                break
            acc = acc * q
    return best


def _terms(p: Phi21Params, one):
    """The terms t_1, t_2, ... of 2phi1 at p (t_0 = one), each from the last:

        t_i = t_(i-1) (1 - a q^(i-1)) (1 - b q^(i-1)) x / ((1 - q^i) (1 - c q^(i-1)))

    in the ring of p and `one`.  Raises ZeroDenominator before the first
    term whose denominator factor vanishes (for an ApproxScalar: is not
    bounded away from zero)."""
    term = one
    aq, bq, cq, qq = p.a, p.b, p.c, one
    for i in count(1):
        qq = qq * p.q  # q^i
        den1 = one - qq
        den2 = one - cq
        if _vanishes(den1) or _vanishes(den2):
            raise ZeroDenominator(
                f"denominator factor vanishes at i={i} within the summation range"
            )
        term = term * (one - aq) * (one - bq) / (den1 * den2) * p.x
        yield term
        aq = aq * p.q
        bq = bq * p.q
        cq = cq * p.q


def _vanishes(v) -> bool:
    """v == 0; for an ApproxScalar, 0 within its error bound."""
    if isinstance(v, ApproxScalar):
        return v.magnitude() <= v.err
    return v == 0


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

    total = one = ApproxScalar.coerce(1, prec)
    terms = _terms(p, one)
    if term_limit is not None:
        return SeriesValue(sum(islice(terms, term_limit), one), term_limit + 1, True)
    small_streak = 0
    for i, term in enumerate(islice(terms, _MAX_TERMS - 1), 1):
        total = total + term
        small_streak = small_streak + 1 if term.magnitude() < tol * (total.magnitude() + 1) else 0
        if small_streak >= 3 and (tail := _tail_bound(p, term, i, prec)) is not None:
            return SeriesValue(_widened(total, tail), i, False)
    raise NoConvergence(f"no convergence after {_MAX_TERMS} terms")


def _exact_termination(p: Phi21Params):
    exact = (int, Fraction, ExactScalar)
    ab = [v for v in (p.a, p.b) if isinstance(v, exact)]
    if not isinstance(p.q, exact) or not ab:
        return None
    # with one exact parameter, checking it twice checks it alone
    return detect_termination(ab[0], ab[-1], p.q)


def _tail_bound(p: Phi21Params, last_term, i, prec):
    """A bound (raw mpf) on |t_(i+1)| + |t_(i+2)| + ..., or None unless
    rho < 1: for j >= i, |t_(j+1) / t_j| <= rho = |x| (1 + |a| |q|^i)
    (1 + |b| |q|^i) / ((1 - |q|^(i+1)) (1 - |c| |q|^i)), so the tail is at
    most |t_i| rho / (1 - rho).  Moduli are upper bounds |v| + err; bound
    operations round up (divisors down), so it holds for the exact values."""
    absq, a, b, c, x = (_upper(v) for v in (p.q, p.a, p.b, p.c, p.x))
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
    return mpf_div(mpf_mul(_upper(last_term), rho, prec, _UP),
                   mpf_sub(fone, rho, prec, _DOWN), prec, _UP)
