"""ApproxScalar, the integer midpoint-radius ball, against exact arithmetic.

The oracle is exact: operands are rationals and Gaussian rationals, each
operator and each short chain of operators is replayed in Fractions, and
the exact result must lie within `err` of `val`, compared exactly.  The
other tests pin the contract around it: which inputs are exact, which
values are real, the errors of a division by a ball that may be zero,
the independence from mpmath's global context, and copying.
"""

import copy
import inspect
import math
import operator
import pickle
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qforge import approx, closedform, forge, qseries, relations
from qforge.approx import ApproxScalar, _div
from qforge.errors import DivisionByZero
from qforge.exact import ExactScalar

PRECS = (64, 113, 300)


def _exact(v):
    """An mpf as a Fraction."""
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * F(man) * F(2) ** exp


def _ball(x):
    """(re, im, rad) of x as Fractions."""
    re, im, rad = x.ball
    unit = F(2) ** x.exp
    return re * unit, im * unit, rad * unit


def assert_contains(x, want):
    """The exact complex value want = (re, im) lies within x.err of x.val."""
    re, im, rad = _ball(x)
    assert (re - want[0]) ** 2 + (im - want[1]) ** 2 <= rad**2


# -- exact replay on Gaussian rationals (re, im) --------------------------------
def c_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def c_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def c_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def c_div(x, y):
    norm = y[0] ** 2 + y[1] ** 2
    return (x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


def c_pow(x, e):
    out = (F(1), F(0))
    for _ in range(abs(e)):
        out = c_mul(out, x)
    return c_div((F(1), F(0)), out) if e < 0 else out


# -- operands: an ApproxScalar and the exact value it was made from ----------------
rationals = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    # numerators and denominators wider than 300 bits round on conversion
    st.builds(F, st.integers(-2**400, 2**400), st.integers(1, 2**360)),
    st.sampled_from([F(0), F(1), F(-1), F(1, 3)]),
)
errs = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 1000), st.sampled_from([10**6, 10**30, 10**40])))


# directions of modulus at most 1, to put an operand's exact value on the
# edge of its ball
DIRECTIONS = [(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(3, 5), F(-4, 5)), (F(-1, 2), F(1, 3))]


@st.composite
def operands(draw):
    """(ApproxScalar, exact (re, im)): a rational or a Gaussian rational
    (an ExactScalar in Q(i)), and with an explicit err any exact value it
    then covers, its edge included."""
    prec = draw(st.sampled_from(PRECS))
    re = draw(rationals)
    im = draw(st.one_of(st.just(F(0)), rationals))
    value = ExactScalar(4, [re, im]) if im else re
    err = draw(errs)
    u = draw(st.sampled_from(DIRECTIONS)) if im else draw(st.sampled_from(DIRECTIONS[:3]))
    return ApproxScalar(value, err, prec), (re + err * u[0], im + err * u[1])


exact_others = st.one_of(rationals, st.integers(-50, 50))

OPS = {
    "add": (operator.add, c_add),
    "sub": (operator.sub, c_sub),
    "mul": (operator.mul, c_mul),
    "div": (operator.truediv, c_div),
}


def apply(name, x, y, xe, ye, reflected=False):
    """x op y (y op x if reflected) and its exact value, or None where the
    exact divisor is 0 (the ball must then refuse) or the divisor's ball
    may hold 0."""
    fast, slow = OPS[name]
    if reflected:
        x, y, xe, ye = y, x, ye, xe
    if name != "div":
        return fast(x, y), slow(xe, ye)
    if ye == (0, 0):
        with pytest.raises(DivisionByZero):
            fast(x, y)
        return None
    try:
        return fast(x, y), slow(xe, ye)
    except DivisionByZero:
        return None


SETTINGS = dict(max_examples=400, deadline=None, database=None)


@seed(20261019)
@settings(**SETTINGS)
@given(operands(), operands(), exact_others, st.integers(-4, 6))
def test_operators_contain_exact_result(x, y, z, e):
    """Every operator: forward with an ApproxScalar, int or Fraction on
    the right, reflected with an int or Fraction on the left."""
    (x, xe), (y, ye) = x, y
    ze = (F(z), F(0))
    for name in OPS:
        for args in ((x, y, xe, ye), (x, z, xe, ze), (x, z, xe, ze, True)):
            if (out := apply(name, *args)) is not None:
                assert_contains(*out)
    assert_contains(-x, (-xe[0], -xe[1]))
    if e >= 0 or xe != (0, 0):
        try:
            assert_contains(x**e, c_pow(xe, e))
        except DivisionByZero:
            assert e < 0


@seed(20261019)
@settings(max_examples=250, deadline=None, database=None)
@given(operands(), st.lists(st.tuples(st.sampled_from(sorted(OPS)), operands()), min_size=2, max_size=5))
def test_operator_chains_contain_exact_result(start, steps):
    x, xe = start
    for name, (y, ye) in steps:
        out = apply(name, x, y, xe, ye)
        if out is None:
            return
        (x, xe) = out
        assert_contains(x, xe)


# -- the contract around the oracle ----------------------------------------------
@pytest.mark.parametrize("prec", PRECS)
def test_exact_inputs_coerce_with_err_zero(prec):
    """A dyadic value that fits in prec bits is held exactly: 1 among
    them, at every precision."""
    values = [1, 0, -7, 2**200, 3 * 2**-90, F(-5, 8), F(3, 2**70), 0.1, -2.5e-300, 1e300,
              mpmath.mpf("0.3"), mpmath.ldexp(mpmath.mpf(-3), -500)]
    for v in values:
        x = ApproxScalar.coerce(v, prec)
        assert x.err == 0 and x.prec == prec
        assert x.val == (v if not isinstance(v, F) else mpmath.mpf(v.numerator) / v.denominator)
    assert ApproxScalar.coerce(mpmath.mpc(0.25, -1.5), prec).err == 0
    assert ApproxScalar.coerce(ExactScalar.from_rational(F(-5, 8)), prec).err == 0
    assert ApproxScalar.coerce(F(1, 3), prec).err > 0


def test_real_stays_real_and_complex_stays_complex():
    """val is an mpf exactly when the value came from real inputs only;
    a complex input stays complex even when its imaginary part is 0 or
    cancels to 0."""
    reals = [3, F(1, 3), 0.5, mpmath.mpf(2), ExactScalar.from_rational(F(2, 7))]
    complexes = [1 + 0j, mpmath.mpc(2, 0), ExactScalar.zeta(3), ExactScalar.zeta(4) + F(1, 2)]
    for v in reals:
        x = ApproxScalar.coerce(v)
        assert type(x.val) is mpmath.mpf
        for y in (x + x, x - x, x * 3, x / 7, -x, x**3, x**-1, 1 - x, 2 / x):
            assert type(y.val) is mpmath.mpf
    for v in complexes:
        z = ApproxScalar.coerce(v)
        assert type(z.val) is mpmath.mpc
        for y in (z + 1, z * F(1, 3), z / 2, -z, z**0 * z, 1 - z, z - z, z * 0):
            assert type(y.val) is mpmath.mpc
    w = ApproxScalar.coerce(1 + 2j) - 2j  # an imaginary part that cancels to 0
    assert type(w.val) is mpmath.mpc and w.val == 1 and w.err == 0


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(operands())
def test_zero_results_and_zero_divisors(x):
    """x - x and 0 * x give zero values; dividing by them, or by a value
    whose err covers 0, raises DivisionByZero."""
    x, _ = x
    diff = x - x
    assert diff.val == 0 and (x * 0).val == 0
    for divisor in (diff, 0, ApproxScalar(1, 1, x.prec)):
        with pytest.raises(DivisionByZero):
            x / divisor
    with pytest.raises(DivisionByZero):
        1 / diff
    with pytest.raises(DivisionByZero):
        diff**-1


def _div_reference(x, y, s):
    """The ball of approx._div in Fractions: the quotient's parts floored,
    its radius (rx 2**s + (|re + i im| + 2) ry) / (|y| - ry) rounded up,
    plus two units; |re + i im| and |y| rounded as the kernel rounds them."""
    (xr, xi, xe), (yr, yi, ye) = x, y
    re, im = (math.floor(v * 2**s) for v in c_div((F(xr), F(xi)), (F(yr), F(yi))))
    mag = math.isqrt(re * re + im * im) + 1 if im else abs(re)
    low = (math.isqrt(yr * yr + yi * yi) if yi else abs(yr)) - ye
    return re, im, math.ceil(F(xe * 2**s + (mag + 2) * ye, low)) + 2


# divisors with radius close to |y| (|y| - ry of 1 or 2 units), where the
# quotient's radius is many units and each term of its formula shows
NEAR_ZERO_DIVISORS = {
    "real": ((7, 0, 0), (5, 0, 4), 8),
    "real-negative": ((-1000, 0, 3), (-9, 0, 7), 4),
    "complex": ((3, -2, 1), (3, 4, 4), 6),
    "complex-inexact-norm": ((-5, 11, 2), (6, -7, 8), 10),
}


@pytest.mark.parametrize("x, y, s", NEAR_ZERO_DIVISORS.values(), ids=list(NEAR_ZERO_DIVISORS))
def test_div_radius_near_a_vanishing_divisor(x, y, s):
    got = _div(x, y, s)
    assert got == _div_reference(x, y, s)
    # and the ball holds x / y for divisors y t in y's ball at either end
    # of it along y (|y| rounded up keeps them inside)
    re, im, rad = got
    (xr, xi, xe), (yr, yi, ye) = x, y
    mod = math.isqrt(yr * yr + yi * yi)
    mod += mod * mod < yr * yr + yi * yi
    for t in (1 - F(ye, mod), 1 + F(ye, mod)):
        for dx in ((0, 0),) if not xe else ((xe, 0), (-xe, 0), (0, xe), (0, -xe)):
            qr, qi = c_div((F(xr + dx[0]), F(xi + dx[1])), (yr * t, yi * t))
            assert (qr * 2**s - re) ** 2 + (qi * 2**s - im) ** 2 <= rad**2


@pytest.mark.parametrize("y", [(5, 0, 5), (-2, 0, 2), (3, 4, 5), (3, 4, 6)],
                         ids=["real", "real-negative", "complex", "complex-beyond"])
def test_div_by_a_ball_reaching_zero(y):
    # |y| - ry = 0 (or below) is a typed error, never a bare ZeroDivisionError
    with pytest.raises(DivisionByZero, match="not bounded away from zero"):
        _div((1, 1, 0), y, 8)


def fields(x):
    return x.ball, x.exp, x.prec, x.cplx


def test_global_context_untouched_inside_workprec():
    """Operators use their own precision, whatever the caller's context,
    and leave the context as it was."""
    x = ApproxScalar.coerce(F(1, 3), 113)
    want = (x * x - 1) / x
    for prec, dps in ((300, None), (20, None), (None, 50)):
        with (mpmath.workprec(prec) if prec else mpmath.workdps(dps)):
            before = tuple(mpmath.mp._prec_rounding)
            got = (x * x - 1) / x
            assert tuple(mpmath.mp._prec_rounding) == before
        assert fields(got) == fields(want)
    assert mpmath.mp.prec == 53


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(operands())
def test_pickle_and_copy_keep_bits(x):
    x, _ = x
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert fields(y) == fields(x)
        assert type(y.val) is type(x.val) and y.val == x.val and y.err == x.err


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(rationals, rationals)
def test_err_never_below_exact_formula(a, b):
    """On real operands the propagation formulas can be summed exactly in
    Fractions; the rounded err is never below that exact sum."""
    x, y = ApproxScalar.coerce(a), ApproxScalar.coerce(b)
    xv, yv, ex, ey = (_exact(v) for v in (x.val, y.val, x.err, y.err))
    for op, formula in (
        (operator.add, lambda v: ex + ey),
        (operator.sub, lambda v: ex + ey),
        (operator.mul, lambda v: abs(xv) * ey + abs(yv) * ex + ex * ey),
        (operator.truediv, lambda v: (ex + abs(v) * ey) / (abs(yv) - ey)),
    ):
        if op is operator.truediv and abs(yv) <= ey:
            continue
        got = op(x, y)
        assert _exact(got.err) >= formula(_exact(got.val))


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
    with pytest.raises(ValueError):
        ApproxScalar(1, -1)


@pytest.mark.parametrize("copier", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
def test_constructor_values_copy_bit_identical(copier):
    for x in (ApproxScalar(F(1, 3), 0, 64), ApproxScalar(F(2, 7), mpmath.ldexp(1, -70), 200),
              ApproxScalar(ExactScalar.zeta(4) + F(1, 3)), ApproxScalar(F(1, 2))):
        assert fields(copier(x)) == fields(x)


def test_every_precision_defaults_to_the_one_constant():
    """Precision is an argument with one default, approx.DEFAULT_PREC; an
    exact value's embedding takes its precision from the caller."""
    entry_points = (ApproxScalar.coerce, qseries.qpoch_infinite, qseries.phi21_numeric,
                    closedform.closed_form_eval, forge.check_constraints, forge.verify_identity,
                    forge.telescoped_check, relations.relation_residual)
    for fn in entry_points:
        assert inspect.signature(fn).parameters["prec"].default == approx.DEFAULT_PREC, fn.__name__
    assert approx.DEFAULT_PREC == 113
    assert inspect.signature(ExactScalar.to_complex).parameters["prec"].default is inspect.Parameter.empty
    assert not hasattr(approx, "set_default_precision") and not hasattr(approx, "default_precision")
