"""Differential oracle: the numeric kernels against mpmath's own
q-functions at 300 bits, at random rational and cyclotomic points of the
convergent region (fixed seed), near-terminating ones included, and near
|x| = 1 at 256 bits, where mpmath.qhyper sums a Heine transform of the
series.  Every result must hold its bound, |value - reference| <= err,
at each summation tolerance."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

from qforge.closedform import ratio_eval
from qforge.errors import QForgeError, ZeroDenominator
from qforge.exact import ExactScalar
from qforge.forge import check_constraints, default_registry
from qforge.qseries import Phi21Params, detect_termination, phi21_exact, phi21_numeric, qpoch_infinite

REF_PREC = 300
Z3 = ExactScalar.zeta(3)
SETTINGS = dict(max_examples=120, deadline=None, database=None)

params = st.fractions(min_value=-3, max_value=3, max_denominator=40)
inside = st.fractions(min_value=F(-4, 5), max_value=F(4, 5), max_denominator=40)  # |v| < 1
nonzero = inside.filter(bool)  # at x = 0 qhyper never stops summing zeros
tols = st.sampled_from([1e-10, 1e-15, 1e-25])
precs = st.sampled_from([113, 160])


def _mp(v):
    if isinstance(v, ExactScalar):
        return v.to_complex(REF_PREC)
    return mpmath.mpf(v.numerator) / v.denominator


@st.composite
def cyclotomic(draw, rationals):
    """zeta_n^k times a rational drawn from `rationals`."""
    n = draw(st.sampled_from([3, 4, 5, 6, 8, 12]))
    return ExactScalar.zeta(n) ** draw(st.integers(1, n - 1)) * draw(rationals)


@st.composite
def near_terminating(draw):
    """(a, b, c, q, x) with a = q^-j (1 + 10^-e): after j steps the terms
    drop by about 10^-e, then a large negative b makes them grow for many
    terms before they decay."""
    q = draw(st.fractions(min_value=F(1, 2), max_value=F(19, 20), max_denominator=40))
    j = draw(st.integers(1, 6))
    e = draw(st.sampled_from([10, 16, 20, 30]))
    b = draw(st.integers(-1000, -50))
    return q**-j * (1 + F(1, 10**e)), F(b), draw(params), q, draw(nonzero)


def assert_within_err(result, ref):
    with mpmath.workprec(REF_PREC):
        assert abs(result.value.val - ref) <= result.value.err


def check_phi21_numeric(a, b, c, q, x, tol, prec):
    p = Phi21Params(a, b, c, q, x)
    try:
        r = phi21_numeric(p, tol, prec)
    except ZeroDenominator:
        reject()  # c q^j = 1: the series is undefined
    if r.terminated:
        # qhyper would sum zero terms until it gives up: the exact sum instead
        ref = phi21_exact(p).value.to_complex(REF_PREC)
    else:
        with mpmath.workprec(REF_PREC):
            ref = mpmath.qhyper([_mp(a), _mp(b)], [_mp(c)], _mp(q), _mp(x))
    assert_within_err(r, ref)


@seed(20261018)
@settings(**SETTINGS)
@given(params, params, params, nonzero, nonzero, tols, precs)
def test_phi21_numeric_against_qhyper(a, b, c, q, x, tol, prec):
    check_phi21_numeric(a, b, c, q, x, tol, prec)


@seed(20261018)
@settings(**SETTINGS)
@given(near_terminating(), tols, precs)
def test_phi21_numeric_near_terminating_against_qhyper(point, tol, prec):
    check_phi21_numeric(*point, tol, prec)


Q95 = F(19, 20)
# (a, b, c, q, x, tol) where the small-term streak holds before the ratio
# certificate rho < 1 does
REGRESSIONS = {
    # a q^5 = 1 + 10^-e: the terms dip after five steps, then |b| q^i > 1
    # makes them grow to about 10^67 (10^141 at b = -1000)
    "dip-e30-b200": (Q95**-5 * (1 + F(1, 10**30)), F(-200), F(1, 2), Q95, F(1, 2), 1e-12),
    "dip-e30-b1000": (Q95**-5 * (1 + F(1, 10**30)), F(-1000), F(1, 2), Q95, F(1, 2), 1e-12),
    "dip-e20-b200": (Q95**-5 * (1 + F(1, 10**20)), F(-200), F(1, 2), Q95, F(1, 2), 1e-12),
    "dip-e16-b200": (Q95**-5 * (1 + F(1, 10**16)), F(-200), F(1, 2), Q95, F(1, 2), 1e-12),
    # a q^2 = 1 + 10^-25 with |x| near 1: rho > 1 at the first streak
    "dip-e25-x90": (4 * (1 + F(1, 10**25)), F(3, 10), F(1, 5), F(1, 2), F(9, 10), 1e-20),
    "dip-e25-x95": (4 * (1 + F(1, 10**25)), F(3, 10), F(1, 5), F(1, 2), F(19, 20), 1e-20),
}


@pytest.mark.parametrize("point", REGRESSIONS.values(), ids=REGRESSIONS)
def test_phi21_numeric_regressions_against_qhyper(point):
    a, b, c, q, x, tol = point
    r = phi21_numeric(Phi21Params(a, b, c, q, x), tol)
    assert r.certified and not r.terminated
    with mpmath.workprec(400):
        ref = mpmath.qhyper([_mp(a), _mp(b)], [_mp(c)], _mp(q), _mp(x))
        assert abs(r.value.val - ref) <= r.value.err


@seed(20261018)
@settings(**SETTINGS)
@given(params, nonzero, tols, precs)
def test_qpoch_infinite_against_qp(base, q, tol, prec):
    r = qpoch_infinite(base, q, tol, prec)
    assert r.certified
    with mpmath.workprec(REF_PREC):
        ref = mpmath.qp(_mp(base), _mp(q))
    assert_within_err(r, ref)


@seed(20261018)
@settings(**SETTINGS)
@given(cyclotomic(inside), cyclotomic(inside), cyclotomic(inside), cyclotomic(nonzero),
       cyclotomic(nonzero), tols, precs)
def test_phi21_numeric_cyclotomic_against_qhyper(a, b, c, q, x, tol, prec):
    check_phi21_numeric(a, b, c, q, x, tol, prec)


@seed(20261018)
@settings(**SETTINGS)
@given(cyclotomic(inside), cyclotomic(nonzero), tols, precs)
def test_qpoch_infinite_cyclotomic_against_qp(base, q, tol, prec):
    r = qpoch_infinite(base, q, tol, prec)
    with mpmath.workprec(REF_PREC):
        ref = mpmath.qp(_mp(base), _mp(q))
    assert_within_err(r, ref)


def test_qpoch_infinite_relative_accuracy():
    # (9/10; 99/100)_inf is about 2.2e-57: its err must be relative to
    # that, not to 1
    r = qpoch_infinite(F(9, 10), F(99, 100), 1e-90, 113)
    assert r.value.err <= mpmath.mpf(1e-28) * abs(r.value.val)
    with mpmath.workprec(REF_PREC):
        ref = mpmath.qp(_mp(F(9, 10)), _mp(F(99, 100)), maxterms=10**5)
    assert_within_err(r, ref)



# -- the rhs of the numeric identities: one ratio of infinite products ---------------

RHS_PREC = 192


def _mp_tree(tree, bindings):
    """A closed-form tree at the bindings in mpmath, each infinite product
    by mpmath.qp: the rhs by a route that shares no code with qforge's."""
    kind = tree["kind"]
    if kind == "lit":
        return _mp(F(tree["value"]))
    if kind == "sym":
        return _mp(bindings[tree["name"]])
    if kind == "qpow":
        return _mp(bindings["q"]) ** int(_mp_tree(tree["exp"], bindings).real)
    if kind == "qpoch":
        assert tree["len"] == "inf"
        return mpmath.qp(_mp_tree(tree["base"], bindings), _mp(bindings["q"]) ** tree["step"])
    if kind == "pow":
        return _mp_tree(tree["base"], bindings) ** int(_mp_tree(tree["exp"], bindings).real)
    left, right = _mp_tree(tree["left"], bindings), _mp_tree(tree["right"], bindings)
    return {"mul": left * right, "div": left / right, "add": left + right, "sub": left - right}[kind]


def _rhs_points():
    """Seeded bindings inside the domain of each numeric identity: six
    rational ones, q from the pool of perfbench and 19/20, and three in
    Q(zeta_3), one of them at q = zeta_3 / 2."""
    rng = random.Random(20261022)
    registry = default_registry()

    def rational():
        return F(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 30))

    def cyclotomic_value():
        return F(rng.randint(-30, 30), 10) + F(rng.randint(1, 30), 10) * Z3

    points = {}
    for ident in ("qbinom", "qbinom2", "qgauss", "qkummer"):
        record = registry[ident]
        draws = [(rational, F(q)) for q in ("1/2", "2/5", "3/5", "1/3", "4/7", "19/20")]
        draws += [(cyclotomic_value, F(1, 3)), (cyclotomic_value, F(-3, 5)), (cyclotomic_value, Z3 / 2)]
        for n, (draw, q) in enumerate(draws):
            while True:
                bindings = {**{s: draw() for s in record.free}, "q": q}
                try:
                    check_constraints(record, bindings)
                    break
                except QForgeError:
                    pass
            points[f"{ident}-{n}"] = ident, bindings
    return points


RHS_POINTS = _rhs_points()


@pytest.mark.parametrize("ident, bindings", RHS_POINTS.values(), ids=list(RHS_POINTS))
def test_rhs_ratio_against_qp(ident, bindings):
    # every round's ball, each resumed from the last, holds the rhs as
    # mpmath.qp gives it at 192 bits, and is the ball a fresh call gives
    ratio = default_registry()[ident].ratio
    with mpmath.workprec(RHS_PREC):
        ref = _mp_tree(default_registry()[ident].rhs, bindings)
    rhs = None
    for tol in (1e-10, 1e-16, 1e-30):
        rhs = ratio_eval(ratio, bindings, tol, 113, rhs)
        fresh = ratio_eval(ratio, bindings, tol, 113)
        assert (rhs.value.ball, rhs.value.exp, rhs.terms_used, rhs.state) == (
            fresh.value.ball, fresh.value.exp, fresh.terms_used, fresh.state)
        with mpmath.workprec(RHS_PREC):
            assert abs(rhs.value.val - ref) <= rhs.value.err


def test_rhs_ratio_near_a_vanishing_divisor():
    # (c / (ab); q)_inf is about 2**-150: the ratio keeps its error relative
    bindings = {"a": F(1, 2), "b": F(1, 2), "c": (1 - F(1, 2**150)) / 4, "q": F(1, 3)}
    rhs = ratio_eval(default_registry()["qgauss"].ratio, bindings, 1e-12, 200)
    with mpmath.workprec(RHS_PREC + 150):
        ref = _mp_tree(default_registry()["qgauss"].rhs, bindings)
        assert abs(rhs.value.val - ref) <= rhs.value.err <= 1e-12
    assert rhs.value.val > 2**148

# -- near |x| = 1, where phi21_numeric stops by its closed tail -----------------------

HEINE_PREC = 256


def _heine(a, b, c, q, x):
    """The forms of 2phi1(a, b; c; q, x) by Heine's transformations
    (Gasper and Rahman, Basic Hypergeometric Series, (1.4.1), (1.4.5) and
    (1.4.6), with a and b swapped or not): (m, value) pairs, m the modulus
    of the argument of the mpmath.qhyper series that `value()` sums."""
    qp, qhyper = mpmath.qp, mpmath.qhyper
    w = a * b * x / c
    forms = [(abs(w), lambda: qp(w, q) / qp(x, q) * qhyper([c / a, c / b], [c], q, w))]
    for u, v in ((a, b), (b, a)):
        forms.append((abs(v), lambda u=u, v=v: qp(v, q) * qp(u * x, q) / (qp(c, q) * qp(x, q))
                      * qhyper([c / v, x], [u * x], q, v)))
        forms.append((abs(c / v), lambda u=u, v=v: qp(c / v, q) * qp(v * x, q) / (qp(c, q) * qp(x, q))
                      * qhyper([u * v * x / c, v], [v * x], q, c / v)))
    return forms


def _heine_reference(p: Phi21Params):
    """(m, value): 2phi1 at p by mpmath.qhyper at HEINE_PREC bits, summed in
    the form of _heine with the least m, so that near |x| = 1 it sums a
    few hundred terms instead of the direct series' tens of thousands."""
    with mpmath.workprec(HEINE_PREC):
        m, value = min(_heine(*(_mp(v) for v in (p.a, p.b, p.c, p.q, p.x))), key=lambda form: form[0])
        return m, value()


@pytest.mark.parametrize("point", [
    Phi21Params(F(1, 3), F(2, 7), F(3, 11), F(1, 2), F(9, 10)),
    Phi21Params(Z3 / 3 + F(1, 5), F(2, 7) - Z3 / 4, Z3 * F(3, 11), F(-1, 2), Z3 * F(9, 10)),
], ids=["real", "zeta_3"])
def test_heine_reference_is_the_direct_qhyper(point):
    # the reference of the tests below against qhyper on the defining series
    m, value = _heine_reference(point)
    assert m < 1
    with mpmath.workprec(HEINE_PREC):
        direct = mpmath.qhyper([_mp(point.a), _mp(point.b)], [_mp(point.c)], _mp(point.q), _mp(point.x))
        assert abs(direct - value) < mpmath.mpf(2) ** -200 * (1 + abs(value))


def _near_unit_points():
    """Seeded non-terminating points with |x| in [9/10, 999/1000]: 16 real
    ones and 8 each in Q(zeta_3) and Q(zeta_4), each with the tols of
    successive resumed rounds, 1e-10 to 1e-30, and a prec.  Only points
    whose Heine reference sums fast (m <= 4/5) are kept."""
    rng = random.Random(20261022)
    points = {}
    for name, n, count in (("real", 1, 16), ("zeta_3", 3, 8), ("zeta_4", 4, 8)):
        z = ExactScalar.zeta(n)
        found = 0
        while found < count:
            a, b, c = (F(rng.randint(-120, 120), 40) + (F(rng.randint(-40, 40), 40) * z if n > 1 else 0)
                       for _ in range(3))
            q = F(rng.choice([-1, 1]) * rng.randint(2, 28), 40) * (z ** rng.randint(0, 1) if n > 1 else 1)
            x = F(rng.randint(900, 999), 1000) * (z ** rng.randint(1, n - 1) if n > 1 else rng.choice([-1, 1]))
            p = Phi21Params(a, b, c, q, x)
            with mpmath.workprec(53):
                m = min(form[0] for form in _heine(*(_mp(v) for v in (p.a, p.b, p.c, p.q, p.x))))
            if detect_termination(p.a, p.b, p.q) is not None or m > 0.8:
                continue
            tols = sorted(rng.sample([1e-10, 1e-15, 1e-20, 1e-25, 1e-30], rng.randint(1, 3)), reverse=True)
            points[f"{name}-{found}"] = p, tols, rng.choice([113, 113, 160])
            found += 1
    return points


NEAR_UNIT = _near_unit_points()


@pytest.mark.parametrize("point, tols, prec", NEAR_UNIT.values(), ids=list(NEAR_UNIT))
def test_phi21_numeric_near_unit_x_against_qhyper(point, tols, prec):
    # each round resumes the last; every value holds its bound
    _, ref = _heine_reference(point)
    series = None
    for tol in tols:
        series = phi21_numeric(point, tol, prec, series)
        assert series.certified and not series.terminated
        with mpmath.workprec(HEINE_PREC):
            assert abs(series.value.val - ref) <= series.value.err, tol


def test_phi21_numeric_near_unit_x_converges():
    # the ratio rule alone summed this point to _MAX_TERMS and raised
    # NoConvergence: |b| |q|^i > 1 keeps its ratio bound above 1 for the
    # first terms, and at |x| = 399/400 its terms then shrink slowly
    p = Phi21Params(F(284, 33), F(-173, 29), F(-75, 31), F(3, 5), F(399, 400))
    series = phi21_numeric(p, 1e-25, 113)
    assert not series.terminated and series.terms_used < 200
    _, ref = _heine_reference(p)
    with mpmath.workprec(HEINE_PREC):
        assert abs(series.value.val - ref) <= series.value.err
