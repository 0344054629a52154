"""Invariant checks beyond the per-module examples: error-bound honesty,
algebraic laws on random data, and cross-identity consistency."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.approx import ApproxScalar
from qforge.errors import ZeroDenominator
from qforge.exact import ExactScalar
from qforge.poly import MultiPoly, RationalFunction as RF
from qforge.qseries import Phi21Params, phi21_numeric
from qforge.symmetry import canonical_representative


small_fracs = st.fractions(min_value=F(-4), max_value=F(4)).filter(lambda v: v.denominator <= 20)


@given(st.lists(small_fracs, min_size=3, max_size=3), st.lists(small_fracs, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_approx_error_bounds_are_honest(xs, ys):
    """Error bounds must dominate the true deviation from the exact
    Fraction computation for +, *, /."""
    ax = [ApproxScalar.coerce(v) for v in xs]
    ay = [ApproxScalar.coerce(v) for v in ys]
    exact = F(0)
    approx = ApproxScalar.coerce(0)
    for fx, fy, vx, vy in zip(xs, ys, ax, ay):
        exact += fx * fy
        approx = approx + vx * vy
    den = sum(ys) if sum(ys) else F(1)
    exact /= den
    approx = approx / ApproxScalar.coerce(den)
    with mpmath.workprec(200):
        true_err = abs(approx.val - mpmath.mpf(exact.numerator) / exact.denominator)
        assert true_err <= approx.err + mpmath.mpf(2) ** -180


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=300, deadline=None)
def test_canonical_representative_idempotent(k, l, m, n):
    rep, _ = canonical_representative((k, l, m, n))
    rep2, word = canonical_representative(rep)
    assert rep2 == rep


@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_rational_function_field_laws(t1, t2, t3):
    def mk(pairs):
        terms = {}
        for i, (ea, eq) in enumerate(pairs):
            terms[(ea, eq)] = terms.get((ea, eq), F(0)) + i + 1
        return RF(MultiPoly(("a", "q"), terms) + 1, MultiPoly.const(1, ("a", "q")))

    f, g, h = mk(t1), mk(t2), mk(t3)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f / g) * g == f
    assert f - f == RF.const(0)


def test_qbinom2_cross_consistency():
    """phi(a,-a;-q;q,x) equals the 1phi0(a^2; q^2, x) route numerically."""
    rng = random.Random(17)
    for _ in range(10):
        a = F(rng.randint(1, 9), rng.randint(10, 19))
        x = F(rng.randint(1, 9), rng.randint(10, 19))
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        lhs = phi21_numeric(Phi21Params(a, -a, -q, q, x), 1e-14)
        rhs = phi21_numeric(Phi21Params(a * a, F(0), F(0), q * q, x), 1e-14)
        assert abs(lhs.value.val - rhs.value.val) <= 1e-12


def test_rational_function_hash_respects_equality():
    a, q = RF.var("a"), RF.var("q")
    f = (1 - a) / (1 - q)
    g = RF(f.num * (1 + q).num, f.den * (1 + q).num, normalize=False)
    assert f == g
    for h in (f, g):  # unhashable, so no hash can tell equal quotients apart
        with pytest.raises(TypeError):
            hash(h)


def test_zero_denominator_rf_rejected():
    with pytest.raises(ZeroDenominator):
        RF(MultiPoly.var("a"), MultiPoly.const(0))


def test_exact_scalar_hash_consistent_across_orders():
    x = ExactScalar.from_rational(F(3, 7))
    y = x.embed(6)
    assert x == y and hash(x) == hash(y)
