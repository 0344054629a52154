"""Differential oracle: the certified numeric kernels against mpmath's own
q-functions at 300 bits, at random rational points of the convergent
region (fixed seed).  Every certified result must hold its bound,
|value - reference| <= err, at each summation tolerance."""

from fractions import Fraction as F

import mpmath
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

from qforge.errors import ZeroDenominator
from qforge.qseries import Phi21Params, phi21_exact, phi21_numeric, qpoch_infinite

REF_PREC = 300
SETTINGS = dict(max_examples=120, deadline=None, database=None)

params = st.fractions(min_value=-3, max_value=3, max_denominator=40)
inside = st.fractions(min_value=F(-4, 5), max_value=F(4, 5), max_denominator=40)  # |v| < 1
nonzero = inside.filter(bool)  # at x = 0 qhyper never stops summing zeros
tols = st.sampled_from([1e-10, 1e-15, 1e-25])
precs = st.sampled_from([113, 160])


def _mp(v: F):
    return mpmath.mpf(v.numerator) / v.denominator


def assert_within_err(result, ref):
    if result.certified:
        with mpmath.workprec(REF_PREC):
            assert abs(result.value.val - ref) <= result.value.err


@seed(20261018)
@settings(**SETTINGS)
@given(params, params, params, nonzero, nonzero, tols, precs)
def test_phi21_numeric_against_qhyper(a, b, c, q, x, tol, prec):
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
@given(params, nonzero, tols, precs)
def test_qpoch_infinite_against_qp(base, q, tol, prec):
    r = qpoch_infinite(base, q, tol, prec)
    assert r.certified
    with mpmath.workprec(REF_PREC):
        ref = mpmath.qp(_mp(base), _mp(q))
    assert_within_err(r, ref)
