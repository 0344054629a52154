"""q-Pochhammer symbols and the 2phi1 series.

Three evaluation routes: exact terminating summation (including the
extended definition for the exceptional parameter case), truncated
numerics with a proven error bound for non-terminating series, and
finite products that work over any ring (scalars or rational functions).
The exact sum runs its term recurrence with the factors cleared: over Q
as ints over one denominator (_cleared_terms, which the exact series
check of qforge.relations shares), over Q(zeta_n) as numerator vectors
over int denominators, each divisor factor replaced by its conjugate
product over its rational norm (_cleared_sum); one ExactScalar is built
at the end.

The loops of phi21_numeric and qpoch_infinite sum in fixed point on the
balls of qforge.approx as local Python ints, as in Johansson, "Computing
hypergeometric functions rigorously" (ACM TOMS 2019).  With a complex
parameter a ball is three ints (re, im, rad) and the loop calls the
primitives _mul, _div and _abs_up, the one copy of the complex formulas.
With real parameters only it is two (re, rad), as Arb keeps real balls
apart from complex ones, and the loop spells the formulas out at im = 0,
as the numeric-verify and derive workloads of perfbench time it; the ints
are the same.  Differential tests in tests/test_qseries.py check both
loops int for int against loops built from the primitives.  The series
stops by a ratio bound on its tail or by the tail's closed form t_i x /
(1 - x) with a proven bound on its error, whichever holds first.  Exact
rational parameters (ints, Fractions, order-1 ExactScalars) and a float
tol enter as ints: approx._floored floors them to prec bits by the
rounding of ApproxScalar.coerce, and the loops shift them to their own
scale, so they are the balls coerce would give.  Other parameters enter
through coerce, and one ApproxScalar result comes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from operator import mul

from .approx import DEFAULT_PREC, ApproxScalar, _abs_up, _bound, _div, _floored, _make, _mul, _shift
from .errors import (
    DivisionByZero,
    InvalidDomain,
    NoConvergence,
    NotTerminating,
    ResumeMismatch,
    UnreachableTolerance,
    ZeroDenominator,
)
from .exact import ExactScalar, _conjugates, _make as _exact, _mul_nums, _ratio

TERMINATION_BOUND = 64
_MAX_TERMS = 20000  # terms of a non-terminating series; about log(tol) / log(|x| |q|) near |x| = 1


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

    def shifted(self, shift, steps: int = 1) -> "Phi21Params":
        """The parameters moved `steps` times along shift = (k, l, m, n):
        (a q^(k steps), b q^(l steps); c q^(m steps); q, x q^(n steps)),
        in the ring the parameters live in."""
        k, l, m, n = (s * steps for s in shift)
        q = self.q
        return Phi21Params(self.a * q**k, self.b * q**l, self.c * q**m, q, self.x * q**n)


@dataclass(frozen=True)
class SeriesValue:
    """Result of a series or infinite-product evaluation.

    terms_used counts the terms summed from t_0, not a tail added in closed
    form, or the factors of a product: a result resumed from an earlier one
    counts the earlier call's terms too, not only the terms it added."""

    value: object
    terms_used: int
    terminated: bool
    # the loop's final ints: what phi21_numeric resumes from, and the
    # (re, im, rad, exp) of qpoch_infinite's P_M
    state: tuple | None = field(default=None, repr=False)
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


def qpoch_infinite(base, q, tol: float, prec: int = DEFAULT_PREC) -> SeriesValue:
    """(base; q)_infinity as a partial product P_M, stopped at the first M
    where the tail bound (|P_M| + err) u / (1 - u) is at most tol: with
    u = |base| |q|^M / (1 - |q|) < 1 the factors past M multiply to within
    exp(u) - 1 <= u / (1 - u) of 1.  Moduli are upper bounds |v| + err;
    u rounds up.  P_M is a ball with its own exponent, shifted back to wp
    bits after each factor, so its error stays relative however small it
    gets."""
    tm, te = _rounded_tol(tol, prec)
    wp = prec + _GUARD
    one = 1 << wp
    (bq, b_cplx), (qb, q_cplx) = _entry(base, prec, wp), _entry(q, prec, wp)
    qa = _bound(qb)
    if qa >= one:
        raise InvalidDomain("qpoch_infinite requires |q| < 1")
    # u = un 2**ue, rounded up, with un kept at wp bits
    un, ue = -(-(_bound(bq) << wp) // (one - qa)), -wp
    (br, bi, brad), (qr, qi, qrad) = bq, qb  # b q^m and q
    cplx = b_cplx or q_cplx
    q_abs = isqrt(qr * qr + qi * qi) + 1 if qi else abs(qr)
    re, im, rad, exp = 1, 0, 0, 0  # P_m = (re, im, rad) 2**exp
    tb = tm.bit_length() + te + 1  # the rounded tol tm 2**te is below 2**(tb - 1)
    for m in range(100 * prec + 1):
        if un:
            k = un.bit_length() - wp
            un, ue = (-(-un >> k) if k > 0 else un << -k), ue + k
        p_abs = isqrt(re * re + im * im) + 1 if im else abs(re)
        if ue <= 0 and un < 1 << -ue:  # u < 1
            # the tail bound is top 2**exp / den, top = _bound(P_m) un and
            # den = 2**-ue - un.  For nonzero factors of L and U bits, top
            # >= 2**(L + U - 2) and den < 2**-ue, so the exact test below
            # fails when L + U + exp + ue > tb; a zero factor makes top 0
            p_up = p_abs + rad
            if not (un and p_up and p_up.bit_length() + un.bit_length() + exp + ue > tb):
                top = p_up * un
                den = (1 << -ue) - un
                shift = exp - te
                if top << max(shift, 0) <= (tm * den) << max(-shift, 0):
                    return SeriesValue(_make((re, im, rad - (-top // den)), exp, prec, cplx),
                                       m, False, (re, im, rad, exp))
        # P_(m+1) = P_m (1 - b q^m) as approx._mul, b q^(m+1) as
        # approx._mul(_, _, wp); the real body writes them out on (re, rad)
        fr = one - br
        if cplx:
            re, im, rad = _mul((re, im, rad), (fr, -bi, brad), xa=p_abs)
            br, bi, brad = _mul((br, bi, brad), qb, wp, ya=q_abs)
        else:
            re, rad = re * fr, p_abs * brad + abs(fr) * rad + rad * brad
            br, brad = br * qr >> wp, 2 - (-(abs(br) * qrad + q_abs * brad + brad * qrad) >> wp)
        # P_(m+1) shifted back to wp bits as approx._normalized
        k = max(abs(re), abs(im), rad).bit_length() - wp
        exp -= wp
        if k > 0:
            re, im, rad, exp = re >> k, im >> k, 2 - (-rad >> k), exp + k
        un = -(-un * qa >> wp)
    raise NoConvergence("qpoch_infinite failed to meet tolerance")


def detect_termination(a, b, q):
    """Smallest r <= TERMINATION_BOUND with a*q^r = 1 or b*q^r = 1 exactly, else None."""
    found = [r for r in (_termination_exponent(v, q) for v in (a, b)) if r is not None]
    return min(found, default=None)


def _termination_exponent(v, q):
    """The r <= TERMINATION_BOUND with v q^r = 1, else None.

    For rationals v = vn / vd and q = qn / qd in lowest terms, v q^r = 1
    means vn qn^r = vd qd^r (_rational_exponent).  At a rational q an
    irrational v has no r, as v = q^-r would be rational.  Over
    Q(zeta_n), with v and q embedded in one field, v q^r = 1 implies
    N(v) N(q)^r = 1 for the norm N to Q: unless |N(q)| is 0 or 1 the
    rationals N(v), N(q) give the only candidate r, which one exact power
    checks.  Other values (q in {0, 1, -1}, a cyclotomic q of norm +-1,
    inexact ones) walk r = 0, 1, ..."""
    rv, rq = _ratio(v), _ratio(q)
    if isinstance(v, ExactScalar) and not v.is_rational() and (
            rq is not None or isinstance(q, ExactScalar) and q.is_rational()):
        return None
    if rv is not None and rq is not None and abs(rq[0]) not in (0, rq[1]):
        return _rational_exponent(rv, rq)
    exact = (int, Fraction, ExactScalar)
    if isinstance(v, exact) and isinstance(q, exact) and v != 0 and q != 0:
        ev, eq = ExactScalar._align(ExactScalar.coerce(v), ExactScalar.coerce(q))
        nv, nq = (Fraction(_conjugates(e.nums, e.order)[1], e.den ** len(e.nums)) for e in (ev, eq))
        if abs(nq) != 1:
            r = _rational_exponent((nv.numerator, nv.denominator), (nq.numerator, nq.denominator))
            return r if r is not None and ev * eq**r == 1 else None
    acc = v
    for r in range(TERMINATION_BOUND + 1):
        if acc == 1:
            return r
        acc = acc * q
    return None


def _rational_exponent(rv, rq):
    """The r <= TERMINATION_BOUND with (vn / vd) (qn / qd)^r = 1, else None,
    for (vn, vd) = rv and (qn, qd) = rq in lowest terms, |qn| not 0 or qd.
    vn qn^r = vd qd^r means |vn| = qd^r and vd = |qn|^r: one of qd, |qn|
    is at least 2 and gives the only candidate r by its logarithm, which
    one exact power checks."""
    (vn, vd), (qn, qd) = rv, rq
    base, power = (qd, abs(vn)) if qd > 1 else (abs(qn), vd)
    if power == 0:
        return None
    r = round(math.log(power) / math.log(base))
    return r if 0 <= r <= TERMINATION_BOUND and vn * qn**r == vd * qd**r else None


def _cleared_terms(p: Phi21Params, count: int) -> tuple[list[int], int]:
    """(nums, D) with nums[i] / D the term t_i of 2phi1 at the rational
    point p, i < count (t_0 = 1), by its recurrence

        t_i = t_(i-1) (1 - a q^(i-1)) (1 - b q^(i-1)) x / ((1 - q^i) (1 - c q^(i-1)))

    with the factors cleared.  With each parameter v = vn / vd (an int, a
    Fraction or an order-1 ExactScalar) and u = q^(i-1) = un / ud,
    t_i / t_(i-1) = f_i / g_i in ints:

        f_i = (ad ud - an un) (bd ud - bn un) qd cd xn
        g_i = (qd ud - qn un) (cd ud - cn un) ad bd xd

    so D = g_1 ... g_(count-1) and nums[i] = (f_1 ... f_i) (g_(i+1) ...
    g_(count-1)), prefix and suffix products with no gcd.  Raises
    ZeroDenominator at the first i whose factor 1 - q^i or 1 - c q^(i-1)
    vanishes."""
    (an, ad), (bn, bd), (cn, cd), (qn, qd), (xn, xd) = map(_ratio, (p.a, p.b, p.c, p.q, p.x))
    fc, gc = qd * cd * xn, ad * bd * xd
    fs, gs = [], []
    un = ud = 1
    for i in range(1, count):
        g1, g2 = qd * ud - qn * un, cd * ud - cn * un
        if g1 == 0 or g2 == 0:
            raise ZeroDenominator(f"denominator factor vanishes at i={i} within the summation range")
        fs.append((ad * ud - an * un) * (bd * ud - bn * un) * fc)
        gs.append(g1 * g2 * gc)
        un, ud = un * qn, ud * qd
    prefix = accumulate(fs, mul, initial=1)  # f_1 ... f_i
    suffix = list(accumulate(reversed(gs), mul, initial=1))[::-1]  # g_(i+1) ... g_(count-1)
    return list(map(mul, prefix, suffix)), suffix[0]


def _cleared_sum(p: Phi21Params, count: int, order: int) -> tuple[list[int], int]:
    """(nums, D) with sum(nums[j] zeta^j) / D the sum of the terms t_i,
    i < count, over Q(zeta_order), cleared as by _cleared_terms with each
    parameter a numerator vector over an int.  g_i's vector part G_i =
    (qd ud - Q U) (cd ud - C U) becomes its conjugate product P_i over the
    int norm N_i = G_i P_i (exact._conjugates), so t_i / t_(i-1) = f_i P_i
    / (N_i ad bd xd) has an int denominator.  Raises ZeroDenominator where
    _cleared_terms does."""
    (a, ad), (b, bd), (c, cd), (q, qd), (x, xd) = (
        (w.nums, w.den) for w in (v.embed(order) for v in (p.a, p.b, p.c, p.q, p.x)))

    def times(f, g):  # a rational-valued factor, (n, 0, ..., 0), scales the other
        if not any(g[1:]):
            return [e * g[0] for e in f]
        return [e * f[0] for e in g] if not any(f[1:]) else _mul_nums(f, g, order)

    def minus(k, vec):  # k - vec
        out = [-e for e in vec]
        out[0] += k
        return out

    x = [e * qd * cd for e in x]
    gc = ad * bd * xd
    fs, gs = [], []
    ud = 1
    au, bu, cu, qu = a, b, c, q  # the numerators of a u, b u, c u and q u
    for i in range(1, count):
        g1, g2 = minus(qd * ud, qu), minus(cd * ud, cu)
        if not any(g1) or not any(g2):
            raise ZeroDenominator(f"denominator factor vanishes at i={i} within the summation range")
        conj, norm = _conjugates(times(g1, g2), order)
        fs.append(times(times(times(minus(ad * ud, au), minus(bd * ud, bu)), x), conj))
        gs.append(norm * gc)
        au, bu, cu, qu, ud = times(au, q), times(bu, q), times(cu, q), times(qu, q), ud * qd
    suffix = list(accumulate(reversed(gs), mul, initial=1))[::-1]  # g_(i+1) ... g_(count-1)
    total = [0] * len(q)
    for vec, s in zip(accumulate(fs, times, initial=[1] + [0] * (len(q) - 1)), suffix):
        for j, e in enumerate(vec):
            total[j] += e * s
    return total, suffix[0]


def phi21_exact(p: Phi21Params) -> SeriesValue:
    """Exact evaluation of a terminating 2phi1 (standard or exceptional case).

    r is decided exactly, on a, b and q as ExactScalars.  Sums the terms
    i = 0..r; every denominator factor (1 - c*q^(i-1)) and (1 - q^i) is
    asserted nonzero before division, so the exceptional case c = q^(-s)
    with r < s is covered and anything else raises ZeroDenominator.  The
    terms are summed on ints over one denominator, by _cleared_terms over
    Q and by _cleared_sum over Q(zeta_n), n the lcm of the parameters'
    orders; one ExactScalar of order n is built from them (1 when r = 0).
    """
    p = p.as_exact()
    r = _exact_termination(p)
    if r is None:
        raise NotTerminating(f"no terminating exponent r <= {TERMINATION_BOUND} detected")
    if r == 0:
        return SeriesValue(ExactScalar.from_rational(1), 1, True)
    order = math.lcm(*(v.order for v in (p.a, p.b, p.c, p.q, p.x)))
    if order == 1:
        nums, den = _cleared_terms(p, r + 1)
        nums = [sum(nums)]
    else:
        nums, den = _cleared_sum(p, r + 1, order)
    return SeriesValue(_exact(order, nums, den), r + 1, True)


def phi21_numeric(p: Phi21Params, tol: float, prec: int = DEFAULT_PREC,
                  resume: SeriesValue | None = None) -> SeriesValue:
    """Truncated 2phi1 for |q| < 1 with a proven error bound.

    InvalidDomain unless |q| < 1, and |x| < 1 for a non-terminating
    series, hold for every value in their balls.  Stops at the first index
    i where one of two certificates holds; the bound it proves joins the
    err.  The ratio rule: the last three terms are below tol relative to
    the partial sum S_i and _tail_bound bounds the rest (as |x| < 1 it
    holds for i large enough; _MAX_TERMS bounds the search).  The closed
    tail: the rest is t_i sum_(j>=1) x^j prod_(s<j) rho(q^(i+s)), rho(v) =
    (1-av)(1-bv) / ((1-qv)(1-cv)) = 1 + ((q+c-a-b) v + (ab-qc) v^2) /
    ((1-qv)(1-cv)).  For V >= |q^i|, A >= |q+c-a-b| and B >= |ab-qc|, the
    |rho - 1| sum to at most sigma = (A V + B V^2) / ((1-|q|)(1-|q|V)(1-|c|V))
    as sum_s |q^(i+s)| <= V / (1-|q|); if sigma < 1 each product is within
    e^sigma - 1 <= sigma / (1-sigma) of 1, so the rest is the ball t_i x /
    (1-x) within |t_i| |x| sigma / ((1-|x|)(1-sigma)) (_closed_tail).  Its
    test, that bound below tol (|S_i| + 1), takes |t_i| and |q^i| at their
    midpoints, to pass at a tol below their radii; the err takes the radii.

    A terminating series is summed to its last term.  Termination is
    decided exactly, by detect_termination on the a, b and q given, before
    they are rounded to prec bits; an approximate a or b never counts as
    terminating.

    `resume` continues the loop from the `state` of an earlier phi21_numeric
    result at the same p and prec and a tol no looser (else ResumeMismatch).
    Neither the scale nor either bound depends on tol, and a smaller tol is
    harder to meet, so the continued sum, both certificates re-tested at
    the earlier stop, stops where a fresh call does, with the same ints.
    """
    rounded = tm, te = _rounded_tol(tol, prec)
    key = (p, prec)
    term_limit = _exact_termination(p)
    wp = prec + _GUARD
    one = 1 << wp
    (a, a_cplx), (b, b_cplx), (c, c_cplx), (q, q_cplx), (x, x_cplx) = [
        _entry(v, prec, wp) for v in (p.a, p.b, p.c, p.q, p.x)]
    cplx = a_cplx or b_cplx or c_cplx or q_cplx or x_cplx
    bounds = [_bound(v) for v in (q, a, b, c, x)]
    if bounds[0] >= one:
        raise InvalidDomain("phi21_numeric requires |q| < 1")
    if term_limit is None and bounds[4] >= one:
        raise InvalidDomain("phi21_numeric requires |x| < 1 for non-terminating series")
    # i, t_i, q^i, a q^i, b q^i, c q^i, the partial sum and the small-term
    # streak's (|t_j|, |S_j|)
    state = 0, (one, 0, 0), (one, 0, 0), a, b, c, (one, 0, 0), ()
    if resume is not None:
        # qpoch_infinite's four ints or no state at all: not this loop's
        if not (isinstance(resume.state, tuple) and len(resume.state) == 3 and resume.state[0] == key):
            raise ResumeMismatch("resumed from another series, parameters or precision")
        _, (rm, rte), state = resume.state
        if tm << max(te - rte, 0) > rm << max(rte - te, 0):
            raise ResumeMismatch("resumed at a looser tol")
    # u = q^i; each ball is three ints (real part, imaginary part, radius),
    # the imaginary parts 0 throughout unless cplx
    i, (tr, ti, trad), (ur, ui, urad), (ar, ai, arad), (br, bi, brad), (cr, ci, crad), \
        (re, im, rad), pairs = state
    # |t| < tol (|total| + 1), in units of 2**-wp with tol >= tm 2**te; no
    # term of a terminating series is small, so it is summed to its last
    left, tm = max(-te, 0), tm << max(te, 0) if term_limit is None else 0
    streak = ()
    for pair in pairs:
        streak = streak + (pair,) if pair[0] << left < tm * (pair[1] + one) else ()
    limit = _MAX_TERMS - 1 if term_limit is None else term_limit
    (qr, qi, qrad), (xr, xi, xrad) = q, x
    q_abs, x_abs, u_abs = _abs_up(qr, qi), _abs_up(xr, xi), _abs_up(ur, ui)
    t_abs, s_abs = _abs_up(tr, ti), _abs_up(re, im)  # |t_i|, |S_i| and |q^i|, kept up to date
    closed = None
    if term_limit is None:  # the closed tail's A >= |q + c - a - b| and B >= |ab - qc|
        ab, qc = _mul(a, b, wp), _mul(q, c, wp)
        closed = (_bound((qr + c[0] - a[0] - b[0], qi + c[1] - a[1] - b[1], qrad + c[2] + a[2] + b[2])),
                  _bound((ab[0] - qc[0], ab[1] - qc[1], ab[2] + qc[2])), bounds[0], bounds[3], bounds[4])
    tail, rest = 0, (0, 0, 0)
    while not (len(streak) == 3 and (tail := _tail_bound(bounds, streak[2][0] + trad, i, wp)) is not None):
        # the closed tail: tested on midpoints, certified on bounds
        if closed and (e := _closed_tail(t_abs, u_abs, closed, wp)) is not None and e << left < tm * (s_abs + one) \
                and (tail := _closed_tail(t_abs + trad, u_abs + urad, closed, wp)) is not None:
            rest = _div(_mul((tr, ti, trad), x, wp, t_abs, x_abs), (one - xr, -xi, xrad), wp)
            break
        if i == limit:
            if term_limit is None:
                raise NoConvergence(f"no convergence after {_MAX_TERMS} terms")
            break
        i += 1  # t_i from t_(i-1) by the recurrence of _cleared_terms
        # each product below is approx._mul(_, _, wp), each |v| _abs_up; the
        # real body spells them out without the zero imaginary parts.  The
        # denominator factors 1 - q^i and 1 - c q^(i-1) must exclude 0, then
        # num = (1 - a q^(i-1)) (1 - b q^(i-1)) x, then
        # t_i = t_(i-1) num / ((1 - q^i) (1 - c q^(i-1))), then a q^i, b q^i, c q^i
        if cplx:
            ur, ui, urad = _mul((ur, ui, urad), q, wp, u_abs, q_abs)
            dr, er = one - ur, one - cr
            if dr * dr + ui * ui <= urad * urad or er * er + ci * ci <= crad * crad:
                raise ZeroDenominator(f"denominator factor vanishes at i={i} within the summation range")
            num = _mul(_mul((one - ar, -ai, arad), (one - br, -bi, brad), wp), x, wp, ya=x_abs)
            den = _mul((dr, -ui, urad), (er, -ci, crad), wp)
            try:
                tr, ti, trad = _div(_mul((tr, ti, trad), num, wp, t_abs), den, wp)
            except DivisionByZero:
                raise ZeroDenominator("denominator not bounded away from zero") from None
            ar, ai, arad = _mul((ar, ai, arad), q, wp, ya=q_abs)
            br, bi, brad = _mul((br, bi, brad), q, wp, ya=q_abs)
            cr, ci, crad = _mul((cr, ci, crad), q, wp, ya=q_abs)
            re, im, rad = re + tr, im + ti, rad + trad
            t_abs, s_abs, u_abs = _abs_up(tr, ti), _abs_up(re, im), _abs_up(ur, ui)
        else:
            ur, urad = ur * qr >> wp, 2 - (-(u_abs * qrad + q_abs * urad + urad * qrad) >> wp)
            # on real balls a factor's ball holds 0 when its modulus is at most its radius
            dr, er, u_abs = one - ur, one - cr, abs(ur)
            d_abs, e_abs = abs(dr), abs(er)
            if d_abs <= urad or e_abs <= crad:
                raise ZeroDenominator(f"denominator factor vanishes at i={i} within the summation range")
            nr, mr = one - ar, one - br
            nr, nrad = nr * mr >> wp, 2 - (-(abs(nr) * brad + abs(mr) * arad + arad * brad) >> wp)
            nr, nrad = nr * xr >> wp, 2 - (-(abs(nr) * xrad + x_abs * nrad + nrad * xrad) >> wp)
            tr, trad = tr * nr >> wp, 2 - (-(t_abs * nrad + abs(nr) * trad + trad * nrad) >> wp)
            # the divisor's ball, then approx._div with a real quotient
            yr, yrad = dr * er >> wp, 2 - (-(d_abs * crad + e_abs * urad + urad * crad) >> wp)
            low = abs(yr) - yrad
            if low <= 0:
                raise ZeroDenominator("denominator not bounded away from zero")
            tr = (tr << wp) // yr
            t_abs = abs(tr)
            trad = 2 - (-((trad << wp) + (t_abs + 2) * yrad) // low)
            ar, arad = ar * qr >> wp, 2 - (-(abs(ar) * qrad + q_abs * arad + arad * qrad) >> wp)
            br, brad = br * qr >> wp, 2 - (-(abs(br) * qrad + q_abs * brad + brad * qrad) >> wp)
            cr, crad = cr * qr >> wp, 2 - (-(abs(cr) * qrad + q_abs * crad + crad * qrad) >> wp)
            re, rad = re + tr, rad + trad
            s_abs = abs(re)
        if t_abs << left < tm * (s_abs + one):
            streak = streak[-2:] + ((t_abs, s_abs),)
        elif streak:
            streak = ()
    done = term_limit is not None
    state = key, rounded, (i, (tr, ti, trad), (ur, ui, urad), (ar, ai, arad), (br, bi, brad),
                           (cr, ci, crad), (re, im, rad), streak)
    value = (re + rest[0], im + rest[1], rad + rest[2] + tail)
    return SeriesValue(_make(value, -wp, prec, cplx), i + 1 if done else i, done, state)


def _exact_termination(p: Phi21Params):
    exact = (int, Fraction, ExactScalar)
    ab = [v for v in (p.a, p.b) if isinstance(v, exact)]
    if not isinstance(p.q, exact) or not ab:
        return None
    # with one exact parameter, checking it twice checks it alone
    return detect_termination(ab[0], ab[-1], p.q)


def _tail_bound(bounds, last: int, i: int, wp: int):
    """A bound on |t_(i+1)| + |t_(i+2)| + ..., or None unless rho < 1: for
    j >= i, |t_(j+1) / t_j| <= rho = |x| (1 + |a| |q|^i) (1 + |b| |q|^i)
    / ((1 - |q|^(i+1)) (1 - |c| |q|^i)), so the tail is at most
    |t_i| rho / (1 - rho).  `bounds` holds upper bounds on |q|, |a|, |b|,
    |c|, |x| and `last` one on |t_i|, all in units of 2**-wp, as is the
    result; bounds round up and divisors down, so it holds for the exact
    values."""
    q, a, b, c, x = bounds
    one = 1 << wp
    qi = one  # |q|^i, rounded up
    for bit in bin(i)[2:]:
        qi = -(-qi * qi >> wp)
        if bit == "1":
            qi = -(-qi * q >> wp)
    den1 = one + (-qi * q >> wp)
    den2 = one + (-c * qi >> wp)
    if den1 <= 0 or den2 <= 0:
        return None
    # rho = num / den, both in units of 2**(-3 wp)
    num = x * (one - (-a * qi >> wp)) * (one - (-b * qi >> wp))
    den = den1 * den2 << wp
    if num >= den:
        return None
    return -(-last * num // (den - num))


def _closed_tail(t: int, v: int, closed, wp: int):
    """A bound on |t_(i+1) + t_(i+2) + ... - t_i x / (1 - x)|, or None unless
    sigma < 1 (see phi21_numeric), for t >= |t_i|, v >= |q^i| and closed =
    (A, B, |q|, |c|, |x|) as _tail_bound takes its bounds."""
    a, b, q, c, x = closed
    one = 1 << wp
    # sigma = num / den in units of 2**(-3 wp), with 1 - |q| V and 1 - |c| V rounded down
    num, d2, d3 = (a * one + b * v) * v, one + (-q * v >> wp), one + (-c * v >> wp)
    den = (one - q) * d2 * d3
    if d2 <= 0 or d3 <= 0 or num >= den:
        return None
    return -(-t * x * num // ((one - x) * (den - num)))


# -- the integer ball kernel of phi21_numeric and qpoch_infinite --------------
#
# The loops work on balls (re, im, rad) of qforge.approx at wp = prec +
# _GUARD bits, with the rounding rule of its operators.  The series is
# summed in units of 2**-wp, an absolute scale, as its sum starts at 1.
# The running product of qpoch_infinite, which can be tiny
# ((9/10; 99/100)_inf is about 2.2e-57), keeps its own exponent, as an
# ApproxScalar does, shifted back after each factor so that its largest
# part has wp bits.

_GUARD = 24  # bits the kernel works at beyond prec


def _at(v: ApproxScalar, wp: int):
    """v as a ball in units of 2**-wp."""
    return _shift(v.ball, -wp - v.exp)


def _entry(v, prec: int, wp: int):
    """(ball, cplx): the parameter v as _at(ApproxScalar.coerce(v, prec), wp)
    holds it, and whether it is complex.  An int, a Fraction or an order-1
    ExactScalar is floored by approx._floored, the rounding of coerce,
    without building the ApproxScalar; other values go through coerce."""
    r = _ratio(v)
    if r is None:
        v = ApproxScalar.coerce(v, prec)
        return _at(v, wp), v.cplx
    b, exp = _floored(*r, prec)
    return _shift(b, -wp - exp), False


def _rounded_tol(tol, prec: int):
    """(m, e) with m 2**e the tolerance tol rounded down to prec bits;
    UnreachableTolerance unless tol is a positive finite number."""
    if not 0 < tol < math.inf:
        raise UnreachableTolerance(f"tol {tol} is not a positive finite number")
    if type(tol) is float:
        (m, _, _), e = _floored(*tol.as_integer_ratio(), prec)
        return m, e
    t = ApproxScalar.coerce(tol, prec)
    return t.ball[0], t.exp
