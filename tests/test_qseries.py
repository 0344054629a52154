import math
import random
from fractions import Fraction as F
from itertools import count, islice

import mpmath
import pytest
from test_oracle import REGRESSIONS

from qforge import approx, exact, qseries
from qforge.approx import ApproxScalar, _abs_up, _bound, _div, _make, _mul, _normalized, _upper
from qforge.errors import (
    DivisionByZero,
    InvalidDomain,
    NoConvergence,
    NotTerminating,
    ResumeMismatch,
    ZeroDenominator,
)
from qforge.exact import ExactScalar, format_scalar
from qforge.families import family_qbinom2, family_qgauss, family_qkummer, family_root_of_unity
from qforge.poly import RationalFunction as RF
from qforge.qseries import (
    _GUARD,
    _MAX_TERMS,
    TERMINATION_BOUND,
    Phi21Params,
    SeriesValue,
    _at,
    _cleared_terms,
    _closed_tail,
    _entry,
    _exact_termination,
    _rounded_tol,
    _tail_bound,
    detect_termination,
    phi21_exact,
    phi21_numeric,
    qpoch_finite,
    qpoch_infinite,
)

Q = F(1, 2)
Z3 = ExactScalar.zeta(3)
Z4 = ExactScalar.zeta(4)


def _as_numeric(p: Phi21Params, prec: int = approx.DEFAULT_PREC) -> Phi21Params:
    """p with every parameter an ApproxScalar at prec bits."""
    return Phi21Params(*(ApproxScalar.coerce(v, prec) for v in (p.a, p.b, p.c, p.q, p.x)))


def _terms(p: Phi21Params, one):
    """The terms t_1, t_2, ... of 2phi1 at p (t_0 = one), each from the last:

        t_i = t_(i-1) (1 - a q^(i-1)) (1 - b q^(i-1)) x / ((1 - q^i) (1 - c q^(i-1)))

    in the ring of p and `one`.  Raises ZeroDenominator before the first
    term whose denominator factor vanishes.  The ring-generic recurrence
    the exact and numeric sums were built on, kept as their reference."""
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


def _reference_phi21_exact(p: Phi21Params) -> SeriesValue:
    """phi21_exact as it was before it summed cleared terms: the terms
    t_1 .. t_r of _terms in ExactScalar arithmetic, added to 1."""
    p = p.as_exact()
    r = _exact_termination(p)
    if r is None:
        raise NotTerminating(f"no terminating exponent r <= {TERMINATION_BOUND} detected")
    one = ExactScalar.from_rational(1)
    return SeriesValue(sum(islice(_terms(p, one), r), one), r + 1, True)


def test_qpoch_finite_oracles():
    assert qpoch_finite(F(7), F(3), 0) == 1
    assert qpoch_finite(F(1, 2), F(1, 2), 2) == F(3, 8)
    # (q^-2; q)_2 at q = 1/2
    assert qpoch_finite(F(4), F(1, 2), 2) == F(3)


def test_qpoch_finite_recurrence():
    rng = random.Random(3)
    for _ in range(50):
        base = F(rng.randint(-9, 9), rng.randint(1, 9))
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        i = rng.randint(0, 32)
        assert qpoch_finite(base, q, i + 1) == qpoch_finite(base, q, i) * (1 - base * q**i)


def test_qpoch_infinite_certified():
    sv = qpoch_infinite(F(1, 2), F(1, 2), 1e-12)
    assert sv.certified and not sv.terminated
    # independent oracle: mpmath's q-Pochhammer (q; q)_inf, inside the ball
    with mpmath.workprec(192):
        ref = mpmath.qp(mpmath.mpf(1) / 2)
        assert abs(sv.value.val - ref) <= sv.value.err <= 1e-12
    # within 1e-14 the ball fixes the 12th digit (1e-12 leaves it one off:
    # (q; q)_inf = 0.2887880950866...)
    fine = qpoch_infinite(F(1, 2), F(1, 2), 1e-14)
    assert fine.value.err <= 1e-14
    assert mpmath.nstr(fine.value.val, 12) == "0.288788095087"


# x = 1 - 2**-60 with err 2**-50: a ball that holds values on both sides of 1
STRADDLE = ApproxScalar(1 - F(1, 2**60), F(1, 2**50))


@pytest.mark.parametrize("call", [
    lambda: phi21_numeric(Phi21Params(F(1, 3), F(1, 5), F(1, 7), STRADDLE, F(1, 2)), 1e-12),
    lambda: phi21_numeric(Phi21Params(F(1, 3), F(1, 5), F(1, 7), F(1, 2), STRADDLE), 1e-12),
    lambda: qpoch_infinite(F(1, 2), STRADDLE, 1e-12),
], ids=["phi21-q", "phi21-x", "qpoch-q"])
def test_domain_checks_the_whole_ball(call):
    # the checks bound |v| for every v in the ball, not the midpoint
    # alone, so a call fails before it sums a term
    with pytest.raises(InvalidDomain):
        call()


def test_qpoch_infinite_edge_cases():
    sv = qpoch_infinite(F(0), F(1, 2), 1e-15)
    assert sv.value.val == 1 and sv.certified
    sv = qpoch_infinite(F(1), F(1, 3), 1e-15)
    assert sv.value.val == 0
    with pytest.raises(InvalidDomain):
        qpoch_infinite(F(1, 2), F(3, 2), 1e-12)


def test_qpoch_infinite_splitting():
    # (b; q)_inf = (b; q)_N * (b q^N; q)_inf
    rng = random.Random(11)
    for _ in range(10):
        b = F(rng.randint(1, 9), rng.randint(10, 19))
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        n = rng.randint(0, 16)
        whole = qpoch_infinite(b, q, 1e-16)
        head = qpoch_finite(b, q, n)
        tail = qpoch_infinite(b * q**n, q, 1e-16)
        combined = ApproxScalar.coerce(head) * tail.value
        delta = abs(whole.value.val - combined.val)
        assert delta <= whole.value.err + combined.err + mpmath.mpf(1e-20)


def test_detect_termination():
    assert detect_termination(F(1), F(1, 3), F(1, 2)) == 0
    assert detect_termination(F(8), F(16), F(1, 2)) == 3  # a = q^-3, b = q^-4
    assert detect_termination(F(1, 3), F(1, 5), F(1, 2)) is None


def _termination_walk(a, b, q):
    """The reference: walk r = 0..TERMINATION_BOUND for a and for b."""
    best = None
    for v in (a, b):
        acc = v
        for r in range(TERMINATION_BOUND + 1):
            if acc == 1:
                best = r if best is None else min(best, r)
                break
            acc = acc * q
    return best


def test_detect_termination_matches_the_walk():
    # rational q of either sign, |q| above and below 1, q in {0, 1, -1},
    # rational ExactScalars (order 1, and order 3 with a rational value),
    # and cyclotomic q; a and b with r in {0, 1, 64, 65} and with no r,
    # irrational ones (Z3 * 2/3, -Z4 / 2) among them
    rational_3 = ExactScalar(3, [F(-2, 5), 0])
    qs = [F(1, 2), F(-1, 2), F(2, 3), F(-3, 2), F(7), F(-1, 7), F(1000, 1001), 3, F(0), F(1), F(-1),
          ExactScalar.from_rational(F(-2, 5)), rational_3, Z3, -Z3 / 2, Z4 * F(3, 4)]
    for q in qs:
        base = q if isinstance(q, ExactScalar) else F(q)
        powers = [base**-r for r in (0, 1, 64, 65)] if q != 0 else [F(1)] * 4
        values = [*powers, *(-v for v in powers), powers[-2] * (1 + F(1, 10**20)),
                  F(5, 7), F(0), ExactScalar.from_rational(powers[1]) if not isinstance(q, ExactScalar) else Z3,
                  Z3 * F(2, 3), -Z4 / 2]
        for a in values:
            for b in (F(5, 7), powers[1], powers[-2]):
                assert detect_termination(a, b, q) == _termination_walk(a, b, q), (a, b, q)


def test_cyclotomic_termination_matches_the_walk():
    # seeded q in Q(zeta_n), with v = q^-r (terminating at r), v = q^-r
    # times a root of unity or 1 + 1/10^9 (equal norms, or nearly, but no
    # r), rational v and v of another field; q = 2 zeta_3 has a rational
    # cube, and 1 + zeta_5 and zeta_8 have norm 1, so those walk
    rng = random.Random(32)
    orders = (3, 4, 5, 6, 8, 12)

    def draw(order):
        return ExactScalar(order, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(exact.euler_phi(order))])

    qs = [q for q in (draw(rng.choice(orders)) for _ in range(24)) if not q.is_zero()]
    qs += [2 * Z3, 1 + ExactScalar.zeta(5), ExactScalar.zeta(8)]
    terminating = 0
    for q in qs:
        zeta = ExactScalar.zeta(q.order)
        for r in (0, 1, 3, 64, 65):
            power = q**-r
            for v in (power, zeta * power, power * (1 + F(1, 10**9)), draw(rng.choice(orders)), F(1, 8)):
                found = detect_termination(v, v, q)
                assert found == _termination_walk(v, v, q), (v, q)
                terminating += found is not None
    assert terminating >= 4 * len(qs)


def test_phi21_exact_b_one():
    r = phi21_exact(Phi21Params(F(1, 3), F(1), F(1, 7), Q, F(1, 5)))
    assert r.value == 1 and r.terminated and r.certified and r.terms_used == 1


def test_phi21_exact_sv1_value():
    # a=q^(M+2), b=q^(-2N), c=bq/a, x=-q/a at M=0, N=1, q=1/2
    p = Phi21Params(Q**2, Q**-2, Q**-3, Q, -(Q**-1))
    r = phi21_exact(p)
    assert r.value == F(5, 7)
    assert r.terms_used == 3
    # direct 3-term summation oracle
    total = F(0)
    for i in range(3):
        t = (qpoch_finite(Q**2, Q, i) * qpoch_finite(Q**-2, Q, i) * (-(Q**-1)) ** i
             / (qpoch_finite(Q, Q, i) * qpoch_finite(Q**-3, Q, i)))
        total += t
    assert total == F(5, 7)
    # cross-check against the closed form (1 + 1/4)(1 - 1/2)/(1 - 1/8)
    assert total == (1 + F(1, 4)) * (1 - F(1, 2)) / (1 - F(1, 8))


def test_phi21_exact_sv2_zero_branch():
    # a=q^(M+2), b=q^(-2N-1), c=bq/a, x=-q/a at M=0, N=1 -> exceptional case, value 0
    p = Phi21Params(Q**2, Q**-3, Q**-4, Q, -(Q**-1))
    r = phi21_exact(p)
    assert r.value.is_zero()
    assert r.terms_used == 4  # exactly r + 1 terms


def test_phi21_exact_exceptional_case_denominators():
    # c = q^-s with r < s: every retained denominator factor is nonzero
    p = Phi21Params(Q**2, Q**-2, Q**-3, Q, F(1, 3))
    r = phi21_exact(p)
    assert r.terminated and r.terms_used == 3


def test_phi21_exact_zero_denominator():
    # c = q^-1 with termination at r = 3 > s = 1: (c;q)_2 vanishes
    with pytest.raises(ZeroDenominator):
        phi21_exact(Phi21Params(Q**-3, F(1, 3), Q**-1, Q, F(1, 5)))


def test_phi21_exact_not_terminating():
    with pytest.raises(NotTerminating):
        phi21_exact(Phi21Params(F(1, 3), F(1, 5), F(1, 7), Q, F(1, 5)))


def test_phi21_exact_cyclotomic():
    # sv4 left-hand side at N=1, q=1/2: value -(1+3z)/7
    z = ExactScalar.zeta(3)
    p = Phi21Params(z * Q, Q**-1, z * Q**-1, Q, F(1))
    r = phi21_exact(p)
    assert r.value == ExactScalar(3, [F(-1, 7), F(-3, 7)])


def _exact_cases():
    """(id, Phi21Params) for the differential test of phi21_exact: seeded
    points over Q, Q(zeta_n) for n = 3, 4, 5, 8, 12 and mixed orders, a
    cyclotomic q, r = 0, the exceptional c = q^-s, and a denominator
    factor that vanishes inside the summation range."""
    rng = random.Random(28)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    def value(order):
        if order == 1:
            return rational()
        z = ExactScalar.zeta(order)
        return rational() + rational() * z + rational() * z**(order - 1)

    cases = []
    for orders in [(1,), (3,), (4,), (5,), (8,), (12,), (3, 4), (4, 5), (1, 3, 8)]:
        for k in range(6):
            q = F(rng.randint(1, 9), rng.randint(10, 19)) * rng.choice([1, -1])
            r = rng.randint(0, 7)
            a, c, x = (value(rng.choice(orders)) for _ in range(3))
            cases.append((f"orders={orders}-{k}", Phi21Params(a, q**-r, c, q, x)))
    q = Q + Z3  # a cyclotomic q, and a b that terminates on it
    cases += [(f"cyclotomic-q-r={r}", Phi21Params(F(2, 3) + Z4, q**-r, F(1, 7) * Z3, q, Z4 - 2))
              for r in (0, 1, 3)]
    cases += [("r=0", Phi21Params(F(1), Z4, Z3, Q, Z4 + 1)),
              ("r=0-rational-valued-order-4", Phi21Params(Z4**4, Z4 * 3, Z4**2, Q, Z4**2 * 5)),
              ("rational-valued-order-4", Phi21Params(Q**-3 * Z4**4, Z4**2 * 3, Z4**2 * 2, Q, Z4**4)),
              ("exceptional", Phi21Params(Q**2 * Z4, Q**-2, Q**-3, Q, Z3)),
              ("exceptional-rational", Phi21Params(Q**2, Q**-3, Q**-4, Q, -(Q**-1))),
              ("zero-denominator", Phi21Params(Q**-3, Z3, Q**-1, Q, Z4)),
              ("zero-denominator-rational", Phi21Params(Q**-3, F(1, 3), Q**-1, Q, F(1, 5))),
              ("root-of-unity-q", Phi21Params(Z4**-5, F(2, 7), F(3, 11), Z4, Z3)),
              ("root-of-unity-q-zero-denominator", Phi21Params(Z3**-5, F(2, 7), Z3**-1, Z3, F(1, 5))),
              ("not-terminating", Phi21Params(Z3, F(1, 5), F(1, 7), Q, F(1, 5)))]
    return cases


@pytest.mark.parametrize("p", [p for _, p in _exact_cases()], ids=[k for k, _ in _exact_cases()])
def test_phi21_exact_matches_the_ring_generic_sum(p):
    # value, order (so the text of format_scalar), terms_used, and the
    # exception type and message
    def outcome(f):
        try:
            v = f(p)
        except (ZeroDenominator, NotTerminating) as exc:
            return type(exc), str(exc)
        return format_scalar(v.value), v.value.order, v.terms_used, v.terminated

    assert outcome(phi21_exact) == outcome(_reference_phi21_exact)


def test_phi21_exact_builds_no_scalar_per_term(monkeypatch):
    # a cyclotomic sum builds the same number of ExactScalars at every r
    built, real = [], exact._raw
    monkeypatch.setattr(exact, "_raw", lambda *args: built.append(1) or real(*args))
    counts = []
    for r in (1, 4, 16):
        built.clear()
        phi21_exact(Phi21Params(F(2, 5) * Z4, Q**-r, Z4 * F(1, 3) + Z3, Q, Z4 + F(1, 2)))
        counts.append(len(built))
    assert counts[0] == counts[1] == counts[2]


def test_phi21_symmetry_in_a_b():
    rng = random.Random(5)
    for _ in range(30):
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        r = rng.randint(0, 6)
        a = q**-r
        b = F(rng.randint(1, 9), rng.randint(10, 19))
        c = F(rng.randint(1, 9), rng.randint(10, 19))
        x = F(rng.randint(1, 9), rng.randint(10, 19))
        v1 = phi21_exact(Phi21Params(a, b, c, q, x)).value
        v2 = phi21_exact(Phi21Params(b, a, c, q, x)).value
        assert v1 == v2


def test_phi21_numeric_x_zero():
    r = phi21_numeric(Phi21Params(F(1, 3), F(1, 5), F(1, 7), Q, F(0)), 1e-12)
    assert r.value.val == 1


def test_phi21_numeric_qbinom_oracle():
    # b = c cancels: 1phi0(a;;q,x) = (ax;q)inf/(x;q)inf
    r = phi21_numeric(Phi21Params(F(1, 3), F(1, 5), F(1, 5), Q, F(1, 2)), 1e-13)
    num = qpoch_infinite(F(1, 6), Q, 1e-18).value
    den = qpoch_infinite(F(1, 2), Q, 1e-18).value
    assert abs(r.value.val - (num / den).val) < 1e-12
    assert r.certified


def test_phi21_numeric_qgauss_oracle():
    a, b, c = F(1, 2), F(1, 3), F(1, 20)
    x = c / (a * b)
    r = phi21_numeric(Phi21Params(a, b, c, Q, x), 1e-13)
    rhs = (qpoch_infinite(c / a, Q, 1e-18).value * qpoch_infinite(c / b, Q, 1e-18).value
           / (qpoch_infinite(c, Q, 1e-18).value * qpoch_infinite(x, Q, 1e-18).value))
    assert abs(r.value.val - rhs.val) < 1e-12


def test_phi21_numeric_domain_errors():
    with pytest.raises(InvalidDomain):
        phi21_numeric(Phi21Params(F(1, 3), F(1, 5), F(1, 7), F(3, 2), F(1, 5)), 1e-12)
    with pytest.raises(InvalidDomain):
        phi21_numeric(Phi21Params(F(1, 3), F(1, 5), F(1, 7), Q, F(3, 2)), 1e-12)


def test_phi21_numeric_exact_agreement():
    rng = random.Random(9)
    for _ in range(25):
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        r = rng.randint(0, 8)
        b = q**-r
        a = F(rng.randint(1, 9), rng.randint(10, 19))
        c = F(rng.randint(1, 9), rng.randint(10, 19))
        x = F(rng.randint(1, 9), rng.randint(10, 19))
        exact = phi21_exact(Phi21Params(a, b, c, q, x)).value
        tol = 1e-13
        numeric = phi21_numeric(Phi21Params(a, b, c, q, x), tol)
        assert numeric.terminated
        with mpmath.workprec(150):
            ref = exact.to_complex(130)
            delta = abs(numeric.value.val - ref)
            # agreement within 10*tol relative to the value's scale, and
            # inside the propagated rounding bound
            assert delta <= 10 * tol * (1 + abs(ref))
            assert delta <= numeric.value.err + mpmath.mpf(10) * tol


def _mp(v: F):
    return mpmath.mpf(v.numerator) / v.denominator


def test_phi21_numeric_near_terminating_a_is_not_falsely_certified():
    # a q^2 = 1 + 1e-18 is not 1: the series does not terminate, and its
    # bound must hold against mpmath.qhyper
    a, b, c, q = 4 * (1 + F(1, 10**18)), F(3, 10), F(1, 5), F(1, 2)
    r = phi21_numeric(Phi21Params(a, b, c, q, q), 1e-20)
    assert not r.terminated
    with mpmath.workprec(300):
        ref = mpmath.qhyper([_mp(a), _mp(b)], [_mp(c)], _mp(q), _mp(q))
        assert abs(r.value.val - ref) <= r.value.err


def test_phi21_numeric_terminates_exactly():
    # a q^2 = 1 exactly: three terms, whatever the tolerance
    r = phi21_numeric(Phi21Params(F(4), F(3, 10), F(1, 5), Q, Q), 1e-12)
    assert r.terminated and r.terms_used == 3
    exact = phi21_exact(Phi21Params(F(4), F(3, 10), F(1, 5), Q, Q)).value
    with mpmath.workprec(150):
        assert abs(r.value.val - exact.to_complex(130)) <= r.value.err
    # the same a as an ApproxScalar never counts as terminating
    approx_a = ApproxScalar.coerce(4)
    assert not phi21_numeric(Phi21Params(approx_a, F(3, 10), F(1, 5), Q, Q), 1e-12).terminated


def test_phi21_numeric_ignores_global_precision():
    # every rounding happens at prec, whatever mpmath's global context
    p = Phi21Params(F(1, 3), F(2, 7), F(3, 11), F(1, 2), F(2, 5))
    results = []
    for global_prec in (53, 300):
        with mpmath.workprec(global_prec):
            r = phi21_numeric(p, 1e-20, 113)
        results.append((r.value.val._mpf_, r.value.err._mpf_, r.terms_used))
    assert results[0] == results[1]


def _fields(r):
    v = r.value
    return v.ball, v.exp, v.prec, v.cplx, v.err, r.terms_used, r.terminated


# The loops of phi21_numeric and qpoch_infinite as they were built from the
# ball primitives of qforge.approx: the references the inlined loops must
# match int for int, every SeriesValue field and the resume state included.

def _one_minus(x, one):
    re, im, rad = x
    return one - re, -im, rad


def _contains_zero(x):
    re, im, rad = x
    return re * re + im * im <= rad * rad


def _primitive_phi21(p: Phi21Params, tol, prec=113, resume=None):
    rounded = tm, te = _rounded_tol(tol, prec)
    key = (p, prec)
    term_limit = _exact_termination(p)
    p = _as_numeric(p, prec)
    wp = prec + _GUARD
    one = 1 << wp
    params = (p.a, p.b, p.c, p.q, p.x)
    cplx = any(v.cplx for v in params)
    a, b, c, q, x = [_at(v, wp) for v in params]
    bounds = [_bound(v) for v in (q, a, b, c, x)]
    state = 0, (one, 0, 0), (one, 0, 0), a, b, c, (one, 0, 0), ()
    if resume is not None:
        state = resume.state[2]
    i, term, qi, aq, bq, cq, (re, im, rad), pairs = state
    left, tm = max(-te, 0), tm << max(te, 0) if term_limit is None else 0
    streak = ()
    for pair in pairs:
        streak = streak + (pair,) if pair[0] << left < tm * (pair[1] + one) else ()
    limit = _MAX_TERMS - 1 if term_limit is None else term_limit
    closed = None
    if term_limit is None:
        # A >= |q + c - a - b|, B >= |ab - qc| and bounds on |q|, |c|, |x|
        ab, qc = _mul(a, b, wp), _mul(q, c, wp)
        closed = (_bound((q[0] + c[0] - a[0] - b[0], q[1] + c[1] - a[1] - b[1], q[2] + c[2] + a[2] + b[2])),
                  _bound((ab[0] - qc[0], ab[1] - qc[1], ab[2] + qc[2])), bounds[0], bounds[3], bounds[4])
    tail, rest = 0, (0, 0, 0)
    while True:
        if len(streak) == 3 and (tail := _tail_bound(bounds, streak[2][0] + term[2], i, wp)) is not None:
            break
        t_abs, u_abs, s_abs = _abs_up(*term[:2]), _abs_up(*qi[:2]), _abs_up(re, im)
        if closed and (e := _closed_tail(t_abs, u_abs, closed, wp)) is not None \
                and e << left < tm * (s_abs + one) \
                and (tail := _closed_tail(_bound(term), _bound(qi), closed, wp)) is not None:
            rest = _div(_mul(term, x, wp), _one_minus(x, one), wp)
            break
        if i == limit:
            if term_limit is None:
                raise NoConvergence(f"no convergence after {_MAX_TERMS} terms")
            break
        i += 1
        qi = _mul(qi, q, wp)
        den1, den2 = _one_minus(qi, one), _one_minus(cq, one)
        if _contains_zero(den1) or _contains_zero(den2):
            raise ZeroDenominator(f"denominator factor vanishes at i={i} within the summation range")
        num = _mul(_mul(_one_minus(aq, one), _one_minus(bq, one), wp), x, wp)
        try:
            term = _div(_mul(term, num, wp), _mul(den1, den2, wp), wp)
        except DivisionByZero:
            raise ZeroDenominator("denominator not bounded away from zero") from None
        aq, bq, cq = _mul(aq, q, wp), _mul(bq, q, wp), _mul(cq, q, wp)
        tr, ti, trad = term
        re, im, rad = re + tr, im + ti, rad + trad
        t_abs, s_abs = _abs_up(tr, ti), _abs_up(re, im)
        if t_abs << left < tm * (s_abs + one):
            streak = streak[-2:] + ((t_abs, s_abs),)
        elif streak:
            streak = ()
    done = term_limit is not None
    state = key, rounded, (i, term, qi, aq, bq, cq, (re, im, rad), streak)
    value = (re + rest[0], im + rest[1], rad + rest[2] + tail)
    return SeriesValue(_make(value, -wp, prec, cplx), i + 1 if done else i, done, state)


def _primitive_qpoch(base, q, tol, prec=113, resume=None):
    pairs = tuple(base) if isinstance(base, (list, tuple)) else ((base, 1),)
    rounded = tm, te = _rounded_tol(tol, prec)
    bs = [(ApproxScalar.coerce(b, prec), s) for b, s in pairs]
    qq = ApproxScalar.coerce(q, prec)
    cplx = qq.cplx or any(b.cplx for b, _ in bs)
    wp = prec + _GUARD
    one = 1 << wp
    qb = _at(qq, wp)
    qa = _bound(qb)
    sides = [_at(b, wp) for b, s in bs if s > 0], [_at(b, wp) for b, s in bs if s < 0]
    # A = un 2**ue >= sum |b q^m| / (1 - |q|), rounded up; the tail bound kk A^2 / (2 (1 - j A))
    un = -(-(sum(_bound(b) for b in sides[0] + sides[1]) << wp) // (one - qa))
    state = 0, (1, 0, 0, 0), (1, 0, 0, 0), *sides, un, -wp
    if resume is not None:
        state = resume.state[2]
    m, n, d, *sides, un, ue = state
    kk, j = (3, 2) if sides[1] else (1, 1)
    (n, ne), (d, de) = (n[:3], n[3]), (d[:3], d[3])
    while True:
        if un:
            k = un.bit_length() - wp
            un, ue = (-(-un >> k) if k > 0 else un << -k), ue + k
        if ue <= 0 and j * un < 1 << -ue:
            # |R_M| kk A^2 / (2 (1 - j A)) <= tol, in Fractions
            d_low = math.isqrt(d[0] * d[0] + d[1] * d[1]) - d[2]
            if d_low <= 0:
                raise ZeroDenominator("denominator not bounded away from zero")
            a = F(un) * F(2) ** ue
            if F(_bound(n)) * F(2) ** (ne - de) / d_low * kk * a * a / (2 * (1 - j * a)) <= F(tm) * F(2) ** te:
                break
        m += 1
        moved = []
        for (p, exp), balls, over in zip(((n, ne), (d, de)), sides, (False, True)):
            for b in balls:
                if over and _contains_zero(_one_minus(b, one)):
                    raise ZeroDenominator(f"denominator factor vanishes at m={m - 1}")
                p, exp = _mul(p, _one_minus(b, one)), exp - wp
            moved.append((_normalized(p, exp, wp), [_mul(b, qb, wp) for b in balls]))
        ((n, ne), num), ((d, de), dens) = moved
        sides = num, dens
        un = -(-un * qa >> wp)
    # N_M (1 - S q^M / (1 - q)) / D_M and the tail bound in its units
    num, dens = sides
    s = tuple(sum(b[i] for b in num) - sum(b[i] for b in dens) for i in (0, 1)) + (sum(b[2] for b in num + dens),)
    value, exp = _mul(n, _one_minus(_div(s, _one_minus(qb, one), wp), one)), ne - wp
    if dens:
        value, exp = _div(value, d, 0), exp - de
    a = F(un) * F(2) ** ue
    tail = math.ceil(F(_bound(n)) * F(2) ** (ne - de - exp) / d_low * kk * a * a / (2 * (1 - j * a)))
    re, im, rad = value
    return SeriesValue(_make((re, im, rad + tail), exp, prec, cplx), m * len(pairs), False,
                       ((pairs, q, prec), rounded, (m, n + (ne,), d + (de,), num, dens, un, ue)))


def _exact_fields(r):
    return _fields(r) + (r.state,)


# points with the summation tols of successive rounds
RESUMED = {
    # the lhs of qbinom at a = 64/67, x = 17/18, q = 1/2, with the tols
    # verify_identity's two rounds used there when only the ratio rule
    # stopped the sum: with the closed tail it stops after 38, then 43
    # terms; the ratio rule alone takes 451, then 517
    "near-unit-x": (Phi21Params(F(64, 67), F(0), F(0), Q, F(17, 18)), (1.25e-13, 2.79e-15)),
    "complex": (Phi21Params(Z3 / 3, F(1, 5), Z4 / 7, Q, Z3 * F(9, 10)), (1e-10, 1e-14, 1e-30)),
    # small x and q near 1: the ratio rule stops the first round after 15
    # terms, and its streak must be re-tested at the second round's tol
    "ratio-rule": (Phi21Params(F(1, 3), F(1, 5), F(1, 7), F(9, 10), F(1, 10)), (1e-10, 1e-30)),
    "terminating": (Phi21Params(F(4), F(3, 10), F(1, 5), Q, Q), (1e-12, 1e-20)),
}


@pytest.mark.parametrize("point, tols", RESUMED.values(), ids=list(RESUMED))
def test_resumed_sum_equals_a_fresh_one(point, tols):
    # each round continues the last and ends where a fresh call at its tol
    # does, and where the primitive loop's round does
    series, reference, used = None, None, []
    for tol in tols:
        series = phi21_numeric(point, tol, 113, series)
        reference = _primitive_phi21(point, tol, 113, reference)
        assert _fields(series) == _fields(phi21_numeric(point, tol, 113))
        assert _exact_fields(series) == _exact_fields(reference)
        used.append(series.terms_used)
    assert used == sorted(used) and (used[0] < used[-1]) == (not series.terminated)


def test_resume_is_pure_and_checked():
    p, (loose, tight) = RESUMED["near-unit-x"]
    first = phi21_numeric(p, loose, 113)
    again = phi21_numeric(p, tight, 113, first)
    assert _fields(phi21_numeric(p, tight, 113, first)) == _fields(again)
    assert _fields(phi21_numeric(p, loose, 113, first)) == _fields(first)
    # a looser tol, another p or another prec cannot match a fresh call
    with pytest.raises(ResumeMismatch):
        phi21_numeric(p, 2 * loose, 113, first)
    with pytest.raises(ResumeMismatch):
        phi21_numeric(p, loose, 113, again)
    with pytest.raises(ResumeMismatch):
        phi21_numeric(p.shifted((0, 0, 0, 1)), tight, 113, first)
    with pytest.raises(ResumeMismatch):
        phi21_numeric(p, tight, 120, first)


def test_resume_from_a_foreign_state_is_a_mismatch():
    # qpoch_infinite's state is four ints, and a result without a loop has none
    p, _ = RESUMED["near-unit-x"]
    with pytest.raises(ResumeMismatch):
        phi21_numeric(p, 1e-12, 113, resume=qpoch_infinite(F(1, 3), F(1, 2), 1e-12))
    with pytest.raises(ResumeMismatch):
        phi21_numeric(p, 1e-12, 113, resume=SeriesValue(1, 1, True))


# ratios of infinite products with the tols of successive rounds: the
# rhs of qgauss at (a, b, c, q) = (1/2, 1/3, 1/10, 1/3); of qkummer at
# (a, b, q) = (3, 1/5, 1/2), its factors at q and q^2 moved to q^2; a
# complex ratio; and a product of |base| = 3, whose A < 1 only from m = 3
RATIOS = {
    "qgauss": ([(F(1, 5), 1), (F(3, 10), 1), (F(1, 10), -1), (F(3, 5), -1)], F(1, 3), (1e-10, 1e-16, 1e-30)),
    "qkummer": ([(F(-1, 2), 1), (F(-1, 4), 1), (F(1, 10), 1), (F(1, 180), 1),
                 (F(-1, 6), -1), (F(-1, 12), -1), (F(1, 30), -1), (F(1, 60), -1)], F(1, 4), (1e-12, 1e-25)),
    "complex": ([(Z3 / 3, 1), (F(1, 2), -1), (Z4 * F(2, 3), -1)], F(3, 5), (1e-8, 1e-20, 1e-40)),
    "product": ([(F(3), 1)], F(1, 2), (1e-6, 1e-30)),
}


@pytest.mark.parametrize("pairs, q, tols", RATIOS.values(), ids=list(RATIOS))
def test_resumed_ratio_equals_a_fresh_one(pairs, q, tols):
    # each round continues the last and ends where a fresh call at its tol
    # does, and where the primitive loop's round does
    ratio, reference, used = None, None, []
    for tol in tols:
        ratio = qpoch_infinite(pairs, q, tol, 113, ratio)
        reference = _primitive_qpoch(pairs, q, tol, 113, reference)
        assert _exact_fields(ratio) == _exact_fields(qpoch_infinite(pairs, q, tol, 113))
        assert _exact_fields(ratio) == _exact_fields(reference)
        used.append(ratio.terms_used)
    assert used == sorted(used) and used[0] < used[-1]


def test_ratio_resume_is_checked():
    pairs, q, (loose, tight, _) = RATIOS["qgauss"]
    first = qpoch_infinite(pairs, q, loose, 113)
    again = qpoch_infinite(pairs, q, tight, 113, first)
    assert _exact_fields(qpoch_infinite(pairs, q, loose, 113, first)) == _exact_fields(first)
    series_point, _ = RESUMED["near-unit-x"]
    series = phi21_numeric(series_point, loose, 113)
    # a state of phi21_numeric, another ratio, q or prec, a looser tol or no state
    for call in (lambda: qpoch_infinite(pairs, q, tight, 113, series),
                 lambda: qpoch_infinite(pairs[:3], q, tight, 113, first),
                 lambda: qpoch_infinite(pairs[::-1], q, tight, 113, first),
                 lambda: qpoch_infinite(pairs, F(1, 2), tight, 113, first),
                 lambda: qpoch_infinite(pairs, q, tight, 120, first),
                 lambda: qpoch_infinite(pairs, q, loose, 113, again),
                 lambda: qpoch_infinite(pairs, q, tight, 113, SeriesValue(1, 1, True))):
        with pytest.raises(ResumeMismatch):
            call()
    # and the other way: phi21_numeric from a ratio's state
    with pytest.raises(ResumeMismatch):
        phi21_numeric(series_point, tight, 113, first)


NEAR_ONE = ApproxScalar(1 - F(4, 2**137), F(2, 2**137), 137)


@pytest.mark.parametrize("pairs, match", [
    # 1 - q^2 q^0 at m = 2 of 1 / (q^2; q)_inf
    ([(F(1, 3), 1), (F(4), -1)], "denominator factor vanishes at m=2"),
    # 1 - b is 4 units of 2**-137 with a radius of 2: each factor excludes
    # 0, and their product, 16 units with a radius of 20, does not
    ([(NEAR_ONE, -1), (NEAR_ONE, -1)], "denominator not bounded away from zero"),
], ids=["factor", "product"])
def test_ratio_denominator_holding_zero(pairs, match):
    for call in (qpoch_infinite, _primitive_qpoch):
        with pytest.raises(ZeroDenominator, match=match):
            call(pairs, F(1, 2), 1e-12, 113)

SHIFTS = [(1, 2, 1, -1), (0, 3, 3, 0), (2, 2, 0, 2), (-1, 0, 2, -3)]
FAMILIES = [family_qbinom2(), family_qgauss(), family_qkummer(), family_root_of_unity(3)]


def _rand_point(rng, fam, cyclotomic):
    """Random bindings of fam's sampled symbols and q; with `cyclotomic`
    the symbols are r + s*zeta_4, r and s rational and nonzero."""
    out = {"q": F(rng.randint(1, 9), rng.randint(10, 19))}
    for sym in fam.free_symbols:
        if sym not in fam.fixed_bindings:
            v = F(rng.randint(1, 9), rng.randint(2, 9))
            out[sym] = v + F(rng.randint(1, 5), rng.randint(2, 7)) * Z4 if cyclotomic else v
    return out


@pytest.mark.parametrize("cyclotomic", [False, True])
def test_shifted_commutes_with_evaluation(cyclotomic):
    # shifting the symbolic assignment then evaluating equals shifting
    # the evaluated point, in Q(q) over Fractions and Q(zeta_4)
    rng = random.Random(17)
    for fam in FAMILIES:
        symbolic = Phi21Params(q=RF.var("q"), **fam.assignment)
        for shift in SHIFTS:
            point = _rand_point(rng, fam, cyclotomic)
            full = {**fam.fixed_bindings, **point}
            at_point = Phi21Params(q=point["q"], **fam.param_values(point))
            for steps in range(5):
                sym, num = symbolic.shifted(shift, steps), at_point.shifted(shift, steps)
                for key in "abcqx":
                    assert getattr(sym, key).eval(full) == getattr(num, key)


def test_shifted_composes():
    rng = random.Random(4)
    a, b, c, q, x = (RF.var(s) for s in "abcqx")
    points = [
        Phi21Params(*(F(rng.randint(1, 9), rng.randint(2, 9)) for _ in range(5))),
        Phi21Params(Z3 + 2, F(1, 3), Z3 * F(2, 5), F(1, 2), 1 - Z3),
        Phi21Params(a, b, c, q, x),
    ]
    for p in points:
        for shift in SHIFTS:
            for i in range(-2, 3):
                for j in range(-2, 3):
                    assert p.shifted(shift, i).shifted(shift, j) == p.shifted(shift, i + j)
        assert p.shifted((1, 2, 3, 4), 0) == p
    assert points[2].shifted((1, 2, 3, -4), 2) == Phi21Params(a * q**2, b * q**4, c * q**6, q, x / q**8)


# rational points at x = 1 as the series check of relations draws them,
# at x = q^n with n < 0 (x > 1), and with signs and a vanishing numerator
CLEARED = {
    "x=1": Phi21Params(F(1, 3), F(2, 7), F(3, 11), F(1, 2), F(1)),
    "x=q^-2": Phi21Params(F(5, 13), F(1, 4), F(2, 9), F(3, 8), F(1)).shifted((1, 0, -1, -2)),
    "signs": Phi21Params(F(-4, 9), F(7, 3), F(-1, 6), F(-2, 5), F(-3, 7)),
    "a=q^-3": Phi21Params(F(8), F(1, 5), F(1, 7), Q, F(2, 3)),
}


@pytest.mark.parametrize("p", CLEARED.values(), ids=list(CLEARED))
def test_cleared_terms_are_the_exact_terms(p):
    nums, den = _cleared_terms(p, 30)
    assert [F(n, den) for n in nums] == [F(1), *islice(_terms(p, F(1)), 29)]


@pytest.mark.parametrize("j", [0, 1, 3])
def test_cleared_terms_raise_where_the_terms_do(j):
    # c q^j = 1 (c = q^-j) makes 1 - c q^(i-1) vanish at i = j + 1
    p = Phi21Params(F(1, 3), F(2, 7), F(2, 5) ** -j, F(2, 5), F(1))
    with pytest.raises(ZeroDenominator) as want:
        list(islice(_terms(p, F(1)), 29))
    with pytest.raises(ZeroDenominator, match=f"vanishes at i={j + 1} ") as got:
        _cleared_terms(p, 30)
    assert str(got.value) == str(want.value)
    # a series cut before that term does not reach it
    nums, den = _cleared_terms(p, j + 1)
    assert [F(n, den) for n in nums] == [F(1), *islice(_terms(p, F(1)), j)]


def _closed_term(p, i):
    return (qpoch_finite(p.a, p.q, i) * qpoch_finite(p.b, p.q, i) * p.x**i
            / (qpoch_finite(p.q, p.q, i) * qpoch_finite(p.c, p.q, i)))


@pytest.mark.parametrize("field", ["Q", "Q(zeta_3)"])
def test_terms_match_qpochhammer_quotients(field):
    rng = random.Random(8)

    def rand():
        v = F(rng.randint(-9, 9), rng.randint(1, 9))
        return v + F(rng.randint(1, 9), rng.randint(1, 9)) * Z3 if field != "Q" else v

    one = F(1) if field == "Q" else ExactScalar.from_rational(1)
    for _ in range(20):
        p = Phi21Params(rand(), rand(), rand(), F(rng.randint(1, 9), rng.randint(10, 19)), rand())
        terms = _terms(p, one)
        for i in range(1, 9):
            assert next(terms) == _closed_term(p, i)


def test_terms_raise_at_first_vanishing_denominator():
    # c = q^-s makes (c;q)_i vanish from i = s + 1; a root of unity q of
    # order d makes (q;q)_i vanish from i = d
    cases = [Phi21Params(F(1, 3), F(2, 7), Q**-s, Q, F(1, 5)) for s in range(5)]
    cases += [Phi21Params(F(1, 3), F(2, 7), F(3, 11), z, F(1, 5)) for z in (Z3, Z4, -Z3)]
    cases += [Phi21Params(Z3, F(2, 7), Z3**-2, Z3, F(1, 5))]
    for p in cases:
        one = ExactScalar.from_rational(1) if isinstance(p.q, ExactScalar) else F(1)
        first = next(i for i in range(1, 20)
                     if qpoch_finite(p.q, p.q, i) == 0 or qpoch_finite(p.c, p.q, i) == 0)
        terms = _terms(p, one)
        for _ in range(first - 1):
            next(terms)
        with pytest.raises(ZeroDenominator, match=f"vanishes at i={first} "):
            next(terms)


def _reference_phi21(p: Phi21Params, tol, prec=113):
    """phi21_numeric's sum as it was before the integer kernel: the
    ring-generic _terms in ApproxScalar, stopped by the same rules."""
    wp = prec + _GUARD

    def units(v):  # an upper bound on |v| in units of 2**-wp
        return math.ceil(_upper(v) * 2**wp)

    def mid(v):  # |v|'s midpoint in units of 2**-wp, rounded up
        return _abs_up(*_at(v, wp)[:2])

    p = _as_numeric(p, prec)
    total = term = qpow = one = ApproxScalar.coerce(1, prec)
    bounds = [units(v) for v in (p.q, p.a, p.b, p.c, p.x)]
    constants = (units(p.q + p.c - p.a - p.b), units(p.a * p.b - p.q * p.c), bounds[0], bounds[3], bounds[4])
    small_streak = 0
    terms = _terms(p, one)
    for i in range(_MAX_TERMS):
        if i:
            term, qpow = next(terms), qpow * p.q
            total = total + term
            small_streak = small_streak + 1 if term.magnitude() < tol * (total.magnitude() + 1) else 0
            if small_streak >= 3 and (tail := _tail_bound(bounds, units(term), i, wp)) is not None:
                return ApproxScalar(total, F(tail, 2**wp)), i
        if (e := _closed_tail(mid(term), mid(qpow), constants, wp)) is not None \
                and e < tol * (total.magnitude() + 1) * 2**wp \
                and (tail := _closed_tail(units(term), units(qpow), constants, wp)) is not None:
            return ApproxScalar(total + term * p.x / (1 - p.x), F(tail, 2**wp)), i
    raise AssertionError("reference did not converge")


def _differential_points():
    """The regression points of test_oracle and 50 seeded non-terminating
    rational points, with their tolerances."""
    rng = random.Random(20261018)
    points = {name: (Phi21Params(*point[:5]), point[5]) for name, point in REGRESSIONS.items()}
    while len(points) < len(REGRESSIONS) + 50:
        a, b, c = (F(rng.randint(-120, 120), 40) for _ in range(3))
        q, x = (F(rng.choice([-1, 1]) * rng.randint(1, 32), 40) for _ in range(2))
        if detect_termination(a, b, q) is None:
            points[f"rational-{len(points)}"] = (Phi21Params(a, b, c, q, x), rng.choice([1e-10, 1e-15, 1e-25]))
    return points


DIFFERENTIAL = _differential_points()


@pytest.mark.parametrize("point, tol", DIFFERENTIAL.values(), ids=list(DIFFERENTIAL))
def test_phi21_numeric_kernel_matches_approx_sum(point, tol):
    # the integer kernel against the ApproxScalar sum of the same terms:
    # the same number of terms, and balls that overlap; and against the
    # primitive loop: the same ints
    try:
        want, terms = _reference_phi21(point, tol)
    except ZeroDivisionError:
        with pytest.raises(ZeroDenominator) as got:
            phi21_numeric(point, tol)
        with pytest.raises(ZeroDenominator) as ref:
            _primitive_phi21(point, tol)
        assert str(got.value) == str(ref.value)
        return
    got = phi21_numeric(point, tol)
    assert _exact_fields(got) == _exact_fields(_primitive_phi21(point, tol))
    assert got.terms_used == terms
    with mpmath.workprec(400):
        assert abs(got.value.val - want.val) <= got.value.err + want.err


def _terms_used(p, tol):
    """phi21_numeric's terms at p, inf on NoConvergence, None where the series is undefined."""
    try:
        return phi21_numeric(p, tol).terms_used
    except NoConvergence:
        return math.inf
    except ZeroDenominator:
        return None


def test_no_point_takes_more_terms_than_the_ratio_rule(monkeypatch):
    # the closed tail only adds a way to stop: with _closed_tail never
    # certifying, the kernel sums by the ratio rule alone, and no point of
    # DIFFERENTIAL or 200 seeded ones (|x| up to 19/20) needs fewer terms so
    rng = random.Random(20261023)
    points = list(DIFFERENTIAL.values())
    while len(points) < len(DIFFERENTIAL) + 200:
        a, b, c = (F(rng.randint(-120, 120), 40) for _ in range(3))
        q, x = (F(rng.choice([-1, 1]) * rng.randint(1, 38), 40) for _ in range(2))
        if detect_termination(a, b, q) is None:
            points.append((Phi21Params(a, b, c, q, x), rng.choice([1e-10, 1e-15, 1e-25, 1e-40])))
    both = [_terms_used(p, tol) for p, tol in points]
    monkeypatch.setattr(qseries, "_closed_tail", lambda *_: None)
    ratio = [_terms_used(p, tol) for p, tol in points]
    assert [n is None for n in both] == [n is None for n in ratio]
    assert all(n <= m for n, m in zip(both, ratio) if n is not None)
    assert math.inf not in both and sum(filter(None, both)) < sum(filter(None, ratio)) / 2


# real points at prec 128, the precision of relations.verify_relation, each
# with its tols: the last one resumed over two
AT_128 = {
    "non-terminating": (Phi21Params(F(2, 3), F(-5, 4), F(1, 7), F(19, 20), F(9, 10)), (1e-30,)),
    "negative-q": (Phi21Params(F(7, 3), F(1, 5), F(-6, 7), F(-1, 2), F(-2, 3)), (1e-25,)),
    "terminating": (Phi21Params(F(8), F(3, 10), F(1, 5), Q, F(5, 3)), (1e-20,)),
    "resumed": (Phi21Params(F(64, 67), F(0), F(0), Q, F(17, 18)), (1e-12, 1e-30)),
}


@pytest.mark.parametrize("point, tols", AT_128.values(), ids=list(AT_128))
def test_real_kernel_matches_the_primitive_loop_at_prec_128(point, tols):
    series, reference = None, None
    for tol in tols:
        series = phi21_numeric(point, tol, 128, series)
        reference = _primitive_phi21(point, tol, 128, reference)
        assert _exact_fields(series) == _exact_fields(reference)
    assert not series.value.cplx and series.value.prec == 128
    assert series.terminated == (point == AT_128["terminating"][0])


@pytest.mark.parametrize("base, q, tol, prec", [
    (F(1, 2), F(1, 2), 1e-12, 113),
    (F(9, 10), F(99, 100), 1e-40, 113),
    (Z3 / 3, F(1, 2), 1e-20, 113),
    (F(2, 3), Z4 * F(3, 4), 1e-20, 113),
    (F(-7, 3), F(-5, 6), 1e-55, 200),
    # edges of the bit-length reject of the tail test: base 0 makes u 0
    # and P_m 1, base 1 makes P_m exactly 0 (top 0 either way), |base| = 3
    # keeps u >= 1 for the first factors
    (F(0), F(1, 2), 1e-45, 113),
    (F(1), F(1, 2), 1e-90, 113),
    (F(3), F(1, 2), 1e-20, 113),
    (F(-3), F(2, 3), 1e-30, 128),
    (F(1, 2**200), F(1, 3), 1e-12, 113),
    (F(5, 7), F(-1, 3), 1e-40, 113),
    # ratios: the qgauss rhs at (a, b, c) = (1/2, 1/3, 1/10), a quotient,
    # a denominator alone, a denominator of |b| = 3, and a complex ratio
    ([(F(1, 5), 1), (F(3, 10), 1), (F(1, 10), -1), (F(3, 5), -1)], F(1, 3), 1e-12, 113),
    ([(F(1, 6), 1), (F(1, 2), -1)], F(1, 2), 1e-40, 113),
    ([(F(9, 10), -1)], F(19, 20), 1e-30, 128),
    ([(F(2, 3), 1), (F(-3), -1)], F(1, 2), 1e-20, 113),
    ([(Z3 / 3, 1), (F(1, 2), -1), (Z4 * F(2, 3), -1)], F(3, 5), 1e-25, 200),
], ids=["qq", "slow", "complex-base", "complex-q", "real-prec-200",
        "zero-base", "zero-factor", "base-3", "base-minus-3", "tiny-base", "negative-q",
        "ratio-qgauss", "ratio-quotient", "ratio-denominator", "ratio-denominator-3", "ratio-complex"])
def test_qpoch_infinite_matches_the_primitive_loop(base, q, tol, prec):
    assert _exact_fields(qpoch_infinite(base, q, tol, prec)) == _exact_fields(_primitive_qpoch(base, q, tol, prec))


def _matches_the_primitive_loop(base, q, tol, prec):
    """The kernel and the primitive loop give the same ints, or raise the same ZeroDenominator."""
    try:
        want = _primitive_qpoch(base, q, tol, prec)
    except ZeroDenominator as exc:
        with pytest.raises(ZeroDenominator) as got:
            qpoch_infinite(base, q, tol, prec)
        assert str(got.value) == str(exc), (base, q, tol, prec)
        return
    assert _exact_fields(qpoch_infinite(base, q, tol, prec)) == _exact_fields(want), (base, q, tol, prec)


def _random_ratio(rng, base, draw):
    """base and one to three more bases from `draw`, each with a random sign."""
    return [(b, rng.choice([1, -1])) for b in [base] + [draw() for _ in range(rng.randint(1, 3))]]


def test_qpoch_infinite_matches_the_primitive_loop_at_seeded_points():
    # a product and a ratio at each point; the reject is near tight: at 8
    # of these 240 calls a reject two bits bolder skips a tail test that passes
    rng = random.Random(20261019)
    for _ in range(120):
        draw = lambda: F(rng.randint(-60, 60), rng.randint(1, 40))  # noqa: E731
        base = draw()
        q = F(rng.choice([-1, 1]) * rng.randint(1, 35), 40)
        tol, prec = 10.0 ** -rng.randint(5, 60), rng.choice([64, 113, 128])
        _matches_the_primitive_loop(base, q, tol, prec)
        _matches_the_primitive_loop(_random_ratio(rng, base, draw), q, tol, prec)


def _complex_points():
    """Seeded complex points with the tols of successive rounds and a
    prec: parameters in Q(zeta_3), Q(zeta_4) and Q(zeta_5) at a rational
    q, a complex q, a complex x near the unit circle, and a terminating
    b = q^-r with a complex a, at a rational and at a cyclotomic q."""
    rng = random.Random(20261020)

    def within(v, bound):  # every value of v's ball has modulus below bound
        return _upper(ApproxScalar.coerce(v, 64)) < bound

    def field(z, bound=F(3, 2)):
        while not within(v := F(rng.randint(-30, 30), 20) + F(rng.randint(-30, 30), 20) * z, bound):
            pass
        return v

    points = {}
    for n in (3, 4, 5):
        z = ExactScalar.zeta(n)
        for k in range(3):
            q = F(rng.choice([-1, 1]) * rng.randint(2, 16), 20)
            p = Phi21Params(field(z), field(z), field(z), q, field(z, F(9, 10)))
            points[f"zeta_{n}-{k}"] = p, (1e-10, 1e-16)
        points[f"complex-q-zeta_{n}"] = Phi21Params(
            field(z), F(rng.randint(-20, 20), 20), field(z), field(z, F(9, 10)), F(rng.randint(-15, 15), 20)), (1e-12,)
        points[f"near-unit-x-zeta_{n}"] = Phi21Params(
            field(z), field(z), field(z), F(1, 3), F(24, 25) * z ** rng.randint(1, n - 1)), (1e-8, 1e-14)
        q = F(rng.randint(2, 9), 10)
        points[f"terminating-zeta_{n}"] = Phi21Params(field(z), q ** -rng.randint(1, 6), field(z), q, field(z)), (1e-12,)
        q = z / 2
        points[f"terminating-cyclotomic-q-zeta_{n}"] = Phi21Params(
            field(z), q ** -rng.randint(1, 6), field(z), q, F(rng.randint(1, 30), 10)), (1e-12, 1e-20)
    return {name: (p, tols, (64, 128, 200)[i % 3]) for i, (name, (p, tols)) in enumerate(points.items())}


COMPLEX = _complex_points()


@pytest.mark.parametrize("point, tols, prec", COMPLEX.values(), ids=list(COMPLEX))
def test_complex_kernel_matches_the_primitive_loop(point, tols, prec):
    # each round resumes the last: the same ints as the primitive loop's
    # round and a fresh call at its tol
    series, reference = None, None
    for tol in tols:
        series = phi21_numeric(point, tol, prec, series)
        reference = _primitive_phi21(point, tol, prec, reference)
        assert _exact_fields(series) == _exact_fields(reference)
        assert _exact_fields(series) == _exact_fields(phi21_numeric(point, tol, prec))
    assert series.value.cplx and series.value.prec == prec
    assert series.terminated == (_exact_termination(point) is not None)


def test_complex_qpoch_infinite_matches_the_primitive_loop_at_seeded_points():
    rng = random.Random(20261021)
    for _ in range(60):
        z = ExactScalar.zeta(rng.choice([3, 4, 5]))
        base = F(rng.randint(-40, 40), 20) + F(rng.randint(-40, 40), 20) * z
        q = F(rng.randint(-15, 15), 20) + F(rng.randint(-15, 15), 20) * z if rng.random() < 0.6 else F(
            rng.choice([-1, 1]) * rng.randint(1, 35), 40)
        if _upper(ApproxScalar.coerce(q, 64)) >= F(19, 20):
            continue
        tol, prec = 10.0 ** -rng.randint(5, 60), rng.choice([64, 113, 128, 200])
        _matches_the_primitive_loop(base, q, tol, prec)
        ratio = _random_ratio(rng, base, lambda: F(rng.randint(-40, 40), 20) + F(rng.randint(-40, 40), 20) * z)
        _matches_the_primitive_loop(ratio, q, tol, prec)


# real points given one parameter as a real-valued, dyadic mpc: the kernels
# then run their complex formulas, which at im = 0 are the real ones
REAL_AS_COMPLEX = {
    "x": (Phi21Params(F(2, 3), F(-5, 4), F(1, 7), F(19, 20), F(1, 4)), "x", mpmath.mpc(0.25, 0)),
    "negative-x": (Phi21Params(F(7, 3), F(1, 5), F(-6, 7), F(-1, 2), F(-3, 8)), "x", mpmath.mpc(-0.375, 0)),
    "q": (Phi21Params(F(1, 3), F(2, 7), F(3, 11), F(1, 2), F(2, 5)), "q", mpmath.mpc(0.5, 0)),
    "terminating": (Phi21Params(F(1, 3), F(8), F(1, 5), Q, F(5, 4)), "x", mpmath.mpc(1.25, 0)),
}


@pytest.mark.parametrize("point, key, value", REAL_AS_COMPLEX.values(), ids=list(REAL_AS_COMPLEX))
def test_real_values_through_the_complex_body(point, key, value):
    moved = Phi21Params(**{**vars(point), key: value})
    for prec, tols in ((113, (1e-12, 1e-25)), (128, (1e-30,))):
        real = cplx = None
        for tol in tols:
            real, cplx = phi21_numeric(point, tol, prec, real), phi21_numeric(moved, tol, prec, cplx)
            assert not real.value.cplx and cplx.value.cplx
            assert (real.value.ball, real.value.exp, real.terms_used, real.terminated, real.state[1:]) == (
                cplx.value.ball, cplx.value.exp, cplx.terms_used, cplx.terminated, cplx.state[1:])


@pytest.mark.parametrize("base, q, value", [
    (F(1, 4), F(1, 2), (mpmath.mpc(0.25, 0), F(1, 2))),
    (F(-5, 8), F(3, 4), (F(-5, 8), mpmath.mpc(0.75, 0))),
    (F(1), F(1, 2), (mpmath.mpc(1, 0), F(1, 2))),
])
def test_real_values_through_the_complex_qpoch_body(base, q, value):
    for tol, prec in ((1e-12, 113), (1e-40, 200)):
        real, cplx = qpoch_infinite(base, q, tol, prec), qpoch_infinite(*value, tol, prec)
        assert not real.value.cplx and cplx.value.cplx
        real_fields, cplx_fields = _exact_fields(real), _exact_fields(cplx)
        assert real_fields[:3] + real_fields[4:] == cplx_fields[:3] + cplx_fields[4:]  # all but cplx


# exact parameters the kernels floor themselves, and values that go through
# ApproxScalar.coerce: each must enter as the ball coerce would give
ENTRY_VALUES = [
    0, 1, -3, 2**113 - 1, 2**200 + 1, -(2**300 - 1), -(2**150) - 3, True,
    F(1, 3), F(-5, 7), F(2**130 + 1, 3), F(-1, 3 * 2**200), F(1, 2**200), F(1, 2**140),
    ExactScalar.from_rational(F(-7, 9)), ExactScalar.from_rational(2**190 + 5), ExactScalar.from_rational(4),
    Z3 / 3, 0.1, mpmath.mpf("-0.3"), ApproxScalar(F(1, 3), F(1, 2**90)),
]


@pytest.mark.parametrize("prec", [64, 113, 128, 200])
def test_kernel_entry_is_the_coerced_ball(prec):
    wp = prec + _GUARD
    for v in ENTRY_VALUES:
        x = ApproxScalar.coerce(v, prec)
        assert _entry(v, prec, wp) == (_at(x, wp), x.cplx), v


@pytest.mark.parametrize("tol", [1e-12, 1e-45, 0.1, 3.0, 1e300, 1e-300, 5e-324])
def test_rounded_tol_is_the_coerced_tol(tol):
    for prec in (64, 113, 128):
        t = ApproxScalar.coerce(tol, prec)
        assert _rounded_tol(tol, prec) == (t.ball[0], t.exp)


@pytest.mark.parametrize("c", [F(1), ApproxScalar(F(3, 4), F(1, 4))], ids=["exact-one", "radius-a-quarter"])
def test_zero_test_includes_a_modulus_equal_to_the_radius(c):
    # |1 - c| is exactly the radius of its ball (0 and 0, or 1/4 and 1/4):
    # the ball holds 0, so the first term's factor vanishes
    p = Phi21Params(F(1, 3), F(1, 5), c, Q, F(1, 3))
    for call in (phi21_numeric, _primitive_phi21):
        with pytest.raises(ZeroDenominator, match="vanishes at i=1 "):
            call(p, 1e-12, 113)


def test_kernel_loops_do_no_approx_arithmetic(monkeypatch):
    # the ApproxScalar operations of a call do not grow with its terms
    calls = []
    for name in ("_sum", "_product", "_quotient"):
        def counted(*args, _op=getattr(approx, name)):
            calls.append(1)
            return _op(*args)
        monkeypatch.setattr(approx, name, counted)
    # real and complex calls, each a short one and a long one
    series = [(Phi21Params(F(1, 3), F(1, 5), F(1, 7), F(1, 2), F(1, 3)),
               Phi21Params(F(2, 3), F(-5, 4), F(1, 7), F(19, 20), F(9, 10))),
              (Phi21Params(Z3 / 3, F(1, 5), Z4 / 7, F(1, 2), F(1, 3)),
               Phi21Params(F(2, 3), Z3 * F(-5, 4), F(1, 7), Z4 * F(19, 20), F(9, 10)))]
    products = [((F(1, 2), F(1, 2), 1e-12), (F(9, 10), F(99, 100), 1e-40)),
                ((Z3 / 2, F(1, 2), 1e-12), (Z4 * F(9, 10), Z3 * F(99, 100), 1e-40))]
    for (short_p, long_p), (short_q, long_q) in zip(series, products):
        counts = []
        for p in (short_p, long_p):
            calls.clear()
            counts.append((phi21_numeric(p, 1e-12).terms_used, len(calls)))
        for base, q, tol in (short_q, long_q):
            calls.clear()
            counts.append((qpoch_infinite(base, q, tol).terms_used, len(calls)))
        (short, n0), (long, n1), (short_product, n2), (long_product, n3) = counts
        assert short < 30 and long >= 200 and short_product < 50 and long_product >= 200
        assert n0 == n1 and n2 == n3


# 2**69 units of 2**-137 (prec 113) below 1
NEAR_UNIT_Q = 1 - F(1, 2**68)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_divisor_not_bounded_away_from_zero(cplx):
    # 1 - q and 1 - c are 2**-68, 2**69 units each, so their product is 2
    # units with a radius of 3: each factor excludes 0, the divisor does
    # not; with 1 - c = 3 2**-69 the product is 3 units, |y| - ry = 0
    # exactly, and the error is still typed, not a bare ZeroDivisionError
    q = NEAR_UNIT_Q
    for c in (q, 1 - F(3, 2**69)):
        p = Phi21Params(F(1, 3), F(1, 5), c, q, Z4 / 3 if cplx else F(1, 3))
        assert _as_numeric(p).x.cplx == cplx
        for call in (phi21_numeric, _primitive_phi21):
            with pytest.raises(ZeroDenominator, match="denominator not bounded away from zero"):
                call(p, 1e-12, 113)


@pytest.mark.parametrize("c", [1 - F(1, 2**67), 1 - F(5, 2**69)], ids=["low-1", "low-2"])
def test_quotient_radius_near_a_vanishing_divisor(c):
    # b = 1/q ends the series at t_1, whose divisor (1 - q)(1 - c) is 4 or
    # 5 units with a radius of 3, so the floor's + 2 ry / (|y| - ry) in the
    # radius of t_1 is several units; the real loop writes approx._div
    # out, so its ints are those of the primitive loop (test_approx pins _div)
    p = Phi21Params(F(1, 3), 1 / NEAR_UNIT_Q, c, NEAR_UNIT_Q, F(1, 3))
    series = phi21_numeric(p, 1e-12, 113)
    assert series.terminated and series.terms_used == 2 and not series.value.cplx
    assert _exact_fields(series) == _exact_fields(_primitive_phi21(p, 1e-12, 113))


def test_phi21_numeric_zero_denominator():
    # c = q^-2: the ball of 1 - c q^2 contains 0 at the third term
    with pytest.raises(ZeroDenominator, match="vanishes at i=3 "):
        phi21_numeric(Phi21Params(F(1, 3), F(2, 7), Q**-2, Q, F(1, 5)), 1e-12)
