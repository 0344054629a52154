"""q-Pochhammer symbols and the 2phi1 series.

Three evaluation routes: exact terminating summation (including the
extended definition for the exceptional parameter case), certified
truncated numerics for non-terminating series, and finite products that
work over any ring (scalars or rational functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import mpmath

from .approx import ApproxScalar, default_precision
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
    certified: bool


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
    """(base; q)_infinity as a certified partial product.

    Truncates at M once the tail bound (exp(|base||q|^M / (1-|q|)) - 1)
    scaled by the partial product magnitude drops to tol.
    """
    prec = default_precision() if prec is None else prec
    b = ApproxScalar.coerce(base, prec)
    qq = ApproxScalar.coerce(q, prec)
    if qq.magnitude() >= 1:
        raise InvalidDomain("qpoch_infinite requires |q| < 1")
    with mpmath.workprec(prec + 8):
        absq = qq.magnitude()
        absb = b.magnitude()
        one_minus_q = 1 - absq
        partial = ApproxScalar.coerce(1, prec)
        qpow = ApproxScalar.coerce(1, prec)
        m = 0
        while True:
            if partial.magnitude() == 0:
                return SeriesValue(partial, m, False, True)
            tail = (mpmath.exp(absb * absq**m / one_minus_q) - 1) * partial.magnitude()
            if tail <= tol:
                value = ApproxScalar(partial.val, partial.err + tail, partial.certified, prec)
                return SeriesValue(value, m, False, True)
            partial = partial * (1 - b * qpow)
            qpow = qpow * qq
            m += 1
            if m > 100 * prec:
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
    total = one = ExactScalar.from_rational(1)
    for term in islice(_terms(p, one), r):
        total = total + term
    return SeriesValue(total, r + 1, True, True)


def phi21_numeric(p: Phi21Params, tol: float, prec: int | None = None) -> SeriesValue:
    """Adaptive truncated 2phi1 for |q| < 1.

    Stops once three consecutive terms are below tol relative to the
    running partial sum; reports certified=True only when a geometric
    tail certificate holds at the stopping index.

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
        for term in islice(terms, term_limit):
            total = total + term
        return SeriesValue(total, term_limit + 1, True, total.certified)
    small_streak = 0
    growth_streak = 0
    prev_mag = one.magnitude()
    for i, term in enumerate(islice(terms, _MAX_TERMS - 1), 1):
        total = total + term
        mag = term.magnitude()
        if mag < tol * (total.magnitude() + 1):
            small_streak += 1
            if small_streak >= 3:
                return _certify_tail(p, total, term, i, tol, prec)
        else:
            small_streak = 0
        growth_streak = growth_streak + 1 if mag > prev_mag else 0
        if growth_streak >= 32:
            raise NoConvergence("term growth for 32 consecutive terms")
        prev_mag = mag
    raise NoConvergence(f"no convergence after {_MAX_TERMS} terms")


def _exact_termination(p: Phi21Params):
    exact = (int, Fraction, ExactScalar)
    ab = [v for v in (p.a, p.b) if isinstance(v, exact)]
    if not isinstance(p.q, exact) or not ab:
        return None
    # with one exact parameter, checking it twice checks it alone
    return detect_termination(ab[0], ab[-1], p.q)


def _certify_tail(p: Phi21Params, total, last_term, i, tol, prec) -> SeriesValue:
    """Geometric certificate: if |t_{j+1}/t_j| <= rho < 1 for all j >= i,
    the tail is bounded by |t_i| * rho / (1 - rho)."""
    with mpmath.workprec(prec + 8):
        absq = p.q.magnitude()
        qi = absq**i
        den1 = 1 - absq ** (i + 1)
        den2 = 1 - p.c.magnitude() * qi
        certified = False
        err_extra = 3 * last_term.magnitude() + tol  # heuristic fallback
        if den1 > 0 and den2 > 0:
            rho = p.x.magnitude() * (1 + p.a.magnitude() * qi) * (1 + p.b.magnitude() * qi) / (den1 * den2)
            if rho < 1:
                certified = True
                err_extra = last_term.magnitude() * rho / (1 - rho)
        value = ApproxScalar(total.val, total.err + err_extra, total.certified and certified, prec)
        return SeriesValue(value, i, False, certified and total.certified)
