"""ApproxScalar's libmp operators against the workprec formulas they replace.

The reference below is the arithmetic as written with mpf/mpc operators
inside mpmath.workprec, one context switch per operation.  Values round
to nearest; error bounds round up, moduli included, and the divisor bound
|y| - ey of a quotient rounds down.  Every operator must give the same
bits of `val` and `err`, the same `prec`, raise where the reference
raises, and leave mpmath's global precision and rounding as
they were.
"""

import copy
import operator
import pickle
from contextlib import contextmanager
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qforge.approx import ApproxScalar
from qforge.errors import DivisionByZero
from qforge.exact import ExactScalar

PRECS = (113, 128, 192)


# -- reference: mpf/mpc operators under workprec ------------------------------
@contextmanager
def rounding(mode):
    """mpf/mpc operators round in `mode` ("c" up, "f" down) inside; mpmath
    1.3 keeps the rounding only in _prec_rounding."""
    ctx = mpmath.mp._prec_rounding
    saved, ctx[1] = ctx[1], mode
    try:
        yield
    finally:
        ctx[1] = saved


def ref_to_mpc(v, prec):
    if isinstance(v, ExactScalar) and v.is_rational():
        v = v.as_rational()
    with mpmath.workprec(prec):
        if isinstance(v, F):
            return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
        if isinstance(v, int):
            return mpmath.mpf(v)
        if isinstance(v, (mpmath.mpf, mpmath.mpc)):
            return mpmath.mpc(v) if isinstance(v, mpmath.mpc) else mpmath.mpf(v)
        return v.to_complex(prec)


def ref_make(value, err, prec):
    val = ref_to_mpc(value, prec)
    with mpmath.workprec(prec), rounding("c"):
        e = mpmath.mpf(err)
    assert not e < 0
    out = object.__new__(ApproxScalar)
    for name, v in (("val", val), ("err", e), ("prec", prec)):
        object.__setattr__(out, name, v)
    return out


def ref_coerce(v, prec):
    """v rounded to prec bits, with err |v| * 2**(2-prec) computed at prec."""
    if isinstance(v, ApproxScalar):
        return v
    val = ref_make(v, 0, prec).val
    with mpmath.workprec(prec), rounding("c"):
        e = ref_rounding(val, prec)
    return ref_make(val, e, prec)


def ref_rounding(v, prec):
    """|v| * 2**(2-prec); call it inside rounding("c")."""
    return abs(v) * mpmath.mpf(2) ** (2 - prec)


def ref_binary(x, other, op):
    o = ref_coerce(other, x.prec)
    prec = max(x.prec, o.prec)
    with mpmath.workprec(prec):
        return op(x, o, prec)


def ref_add(x, other):
    def op(x, y, prec):
        v = x.val + y.val
        with rounding("c"):
            e = x.err + y.err + ref_rounding(v, prec)
        return ref_make(v, e, prec)
    return ref_binary(x, other, op)


def ref_neg(x):
    with mpmath.workprec(x.prec):
        return ref_make(-x.val, x.err, x.prec)


def ref_sub(x, other):
    return ref_add(x, ref_neg(ref_coerce(other, x.prec)))


def ref_rsub(x, other):
    return ref_add(ref_neg(x), other)


def ref_mul(x, other):
    def op(x, y, prec):
        v = x.val * y.val
        with rounding("c"):
            e = abs(x.val) * y.err + abs(y.val) * x.err + x.err * y.err
            e += ref_rounding(v, prec)
        return ref_make(v, e, prec)
    return ref_binary(x, other, op)


def ref_div(x, other):
    def op(x, y, prec):
        with rounding("f"):
            ay = abs(y.val)
            if ay == 0 or ay <= y.err:
                raise DivisionByZero("divisor not bounded away from zero")
            den = ay - y.err
        v = x.val / y.val
        with rounding("c"):
            e = (x.err + abs(v) * y.err) / den
            e += ref_rounding(v, prec)
        return ref_make(v, e, prec)
    return ref_binary(x, other, op)


def ref_rdiv(x, other):
    return ref_div(ref_coerce(other, x.prec), x)


def ref_pow(x, e):
    if e < 0:
        return ref_div(ref_coerce(1, x.prec), ref_pow(x, -e))
    out = ref_coerce(1, x.prec)
    base = x
    while e:
        if e & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        e >>= 1
    return out


# -- operands -------------------------------------------------------------------
def _mpf(v: F):
    return mpmath.mpf(v.numerator) / v.denominator


rationals = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    # numerators and denominators wider than 192 bits round on conversion
    st.builds(F, st.integers(-2**300, 2**300), st.integers(1, 2**260)),
    st.sampled_from([F(0), F(1), F(-1), F(1, 3)]),
)
errs = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 1000), st.sampled_from([10**6, 10**30, 10**40])))


@st.composite
def approx(draw):
    """Real and complex ApproxScalars: from rationals and exact scalars
    through coerce, or from the public constructor with an explicit err,
    including mpc parts computed 16 bits wider than prec (as
    ExactScalar.to_complex hands them over), which it rounds to prec."""
    prec = draw(st.sampled_from(PRECS))
    kind = draw(st.sampled_from(("coerce", "real", "complex", "cyclo")))
    if kind == "coerce":
        return ApproxScalar.coerce(draw(rationals), prec)
    if kind == "cyclo":
        order = draw(st.sampled_from((3, 4, 6)))
        coeffs = [draw(rationals.filter(lambda v: abs(v) < 2**40)) for _ in range(2)]
        return ApproxScalar.coerce(ExactScalar(order, coeffs), prec)
    err = draw(errs)
    if kind == "real":
        return ApproxScalar(_mpf(draw(rationals)), _mpf(err), prec=prec)
    re_, im_ = draw(rationals), draw(rationals)
    with mpmath.workprec(prec + 16):
        value = mpmath.mpc(_mpf(re_), _mpf(im_))
    return ApproxScalar(value, _mpf(err), prec=prec)


exact_others = st.one_of(rationals, st.integers(-50, 50))
others = st.one_of(approx(), exact_others)


def assert_same(got, want):
    for v in (got.val, want.val):
        assert type(v) in (mpmath.mpf, mpmath.mpc)
    assert type(got.val) is type(want.val)
    raw = (lambda v: v._mpf_) if type(want.val) is mpmath.mpf else (lambda v: v._mpc_)
    assert raw(got.val) == raw(want.val)
    assert type(got.err) is mpmath.mpf
    assert got.err._mpf_ == want.err._mpf_
    assert got.prec == want.prec


def context():
    """mpmath's global precision and rounding mode (mpmath 1.3 keeps the
    rounding only in _prec_rounding)."""
    return tuple(mpmath.mp._prec_rounding)


def check(fast, ref, *args):
    before = context()
    try:
        want = ref(*args)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            fast(*args)
        assert context() == before
        return
    got = fast(*args)
    assert context() == before
    assert_same(got, want)


SETTINGS = dict(max_examples=1000, deadline=None, database=None)



@seed(20261018)
@settings(**SETTINGS)
@given(approx(), others, exact_others, st.integers(-6, 9))
def test_operators_bits_match_workprec(x, y, z, e):
    """Each case runs every operator: forward ones with an ApproxScalar,
    int or Fraction on the right, reflected ones with an int or Fraction
    on the left (an ApproxScalar there runs its own forward operator)."""
    check(operator.add, ref_add, x, y)
    check(operator.sub, ref_sub, x, y)
    check(operator.mul, ref_mul, x, y)
    check(operator.truediv, ref_div, x, y)
    check(lambda a, b: b + a, ref_add, x, z)
    check(lambda a, b: b - a, ref_rsub, x, z)
    check(lambda a, b: b * a, ref_mul, x, z)
    check(lambda a, b: b / a, ref_rdiv, x, z)
    check(operator.neg, ref_neg, x)
    check(operator.pow, ref_pow, x, e)


@seed(20261018)
@settings(**SETTINGS)
@given(approx())
def test_zero_results_and_zero_divisors(x):
    """x - x and 0 * x give zero values; dividing by them, or by a value
    whose err covers it, raises DivisionByZero, as in the reference."""
    check(operator.sub, ref_sub, x, x)
    check(operator.mul, ref_mul, x, 0)
    diff = x - x
    check(operator.truediv, ref_div, x, diff)
    check(operator.truediv, ref_div, x, 0)
    check(operator.truediv, ref_div, x, ApproxScalar(1, 1, x.prec))
    check(lambda a, b: b / a, ref_rdiv, diff, 1)
    check(operator.pow, ref_pow, diff, -1)


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(approx())
def test_pickle_and_copy_keep_bits(x):
    assert_same(pickle.loads(pickle.dumps(x)), x)
    assert_same(copy.deepcopy(x), x)


def _exact(v):
    man, exp = v.man_exp
    return F(man) * F(2) ** exp


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(rationals, rationals)
def test_err_never_below_exact_formula(a, b):
    """On real operands the err formulas can be summed exactly in Fractions;
    the rounded err is never below that exact sum."""
    x, y = ApproxScalar.coerce(a), ApproxScalar.coerce(b)
    xv, yv, ex, ey = (_exact(v) for v in (x.val, y.val, x.err, y.err))
    ulp = F(2) ** (2 - x.prec)
    for op, formula in (
        (operator.add, lambda v: ex + ey),
        (operator.sub, lambda v: ex + ey),
        (operator.mul, lambda v: abs(xv) * ey + abs(yv) * ex + ex * ey),
        (operator.truediv, lambda v: (ex + abs(v) * ey) / (abs(yv) - ey)),
    ):
        if op is operator.truediv and abs(yv) <= ey:
            continue
        got = op(x, y)
        v = _exact(got.val)
        assert _exact(got.err) >= formula(v) + abs(v) * ulp


def test_coerce_one_is_the_formula():
    for prec in PRECS:
        assert_same(ApproxScalar.coerce(1, prec), ref_coerce(1, prec))


def test_global_context_untouched_inside_workprec():
    """Operators use their own precision, whatever the caller's context."""
    x = ApproxScalar.coerce(F(1, 3), 113)
    with mpmath.workprec(300):
        got = (x * x - 1) / x
        assert mpmath.mp.prec == 300
    assert_same(got, ref_div(ref_sub(ref_mul(x, x), 1), x))


def assert_coerce_holds_err(v, prec):
    x = ApproxScalar.coerce(v, prec)
    with mpmath.workprec(1000):
        assert abs(x.val - v.to_complex(1000)) <= x.err


@pytest.mark.parametrize("k", (10, 40, 80))
def test_coerce_cyclotomic_unit_power_holds_err(k):
    """u = 1 + zeta_5 + zeta_5^4 is the golden ratio and its conjugate is
    -1/u, so the coefficients of u^-k grow like u^k while u^-k shrinks:
    the error of the embedding scales with the coefficients, not |v|."""
    z = ExactScalar.zeta(5)
    assert_coerce_holds_err((1 + z + z**4) ** -k, 113)


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from((3, 4, 5, 7, 12)), st.integers(-12, 12), st.sampled_from(PRECS), st.data())
def test_coerce_cyclotomic_holds_err(order, e, prec, data):
    deg = len(ExactScalar.zeta(order).nums)
    v = ExactScalar(order, data.draw(st.lists(rationals, min_size=deg, max_size=deg)))
    if v.is_rational() or (e < 0 and v.is_zero()):
        return
    assert_coerce_holds_err(v**e, prec)


@pytest.mark.parametrize("prec", [64, 113, 200])
@pytest.mark.parametrize("v", [F(1, 3), F(2, 7)])
def test_constructor_err_covers_rounding(v, prec):
    """An inexact value's rounding to prec bits counts in the err: |val - v|,
    taken exactly, is at most err."""
    x = ApproxScalar(v, 0, prec)
    assert 0 < abs(_exact(x.val) - v) <= _exact(x.err)
    y = ApproxScalar(v, mpmath.ldexp(1, -100), prec)
    assert _exact(y.err) >= F(1, 2**100) + abs(_exact(y.val) - v)


def test_constructor_adds_nothing_to_exact_values():
    assert ApproxScalar(F(1, 2)).err == 0
    assert ApproxScalar(3, 0, 64).err == 0
    assert ApproxScalar(mpmath.mpc(0.25, -1.5)).err == 0
    assert ApproxScalar(ExactScalar.from_rational(F(-5, 8))).err == 0
    z = ApproxScalar(ExactScalar.zeta(3), 0, 113)  # irrational: rounding and embedding
    with mpmath.workprec(300):
        ref = mpmath.exp(2j * mpmath.pi / 3)
        assert 0 < abs(z.val - ref) <= z.err


@pytest.mark.parametrize("copier", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
def test_constructor_values_copy_bit_identical(copier):
    for x in (ApproxScalar(F(1, 3), 0, 64), ApproxScalar(F(2, 7), mpmath.ldexp(1, -70), 200),
              ApproxScalar(ExactScalar.zeta(4) + F(1, 3)), ApproxScalar(F(1, 2))):
        assert_same(copier(x), x)
