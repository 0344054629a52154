import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.errors import DivisionByZero
from qforge.exact import (
    ExactScalar,
    cyclo_normalize,
    cyclotomic_poly,
    euler_phi,
    field_div,
    format_scalar,
    parse_scalar,
)

Z3 = ExactScalar.zeta(3)
Z4 = ExactScalar.zeta(4)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (F(-1), F(1))
    assert cyclotomic_poly(2) == (F(1), F(1))
    assert cyclotomic_poly(3) == (F(1), F(1), F(1))
    assert cyclotomic_poly(4) == (F(1), F(0), F(1))
    assert cyclotomic_poly(6) == (F(1), F(-1), F(1))
    assert cyclotomic_poly(12) == (F(1), F(0), F(-1), F(0), F(1))


def test_normalize_zeta3_relation():
    # 1 + z + z^2 = 0
    assert cyclo_normalize([1, 1, 1], 3).is_zero()


def test_normalize_zeta4_square():
    v = cyclo_normalize([0, 0, 1], 4)
    assert v == -1


def test_normalize_sv4_value():
    # ((1 - z^2)/(1 - z)) * (-1) / (1 - 2z) = -(1 + 3z)/7
    v = (1 - Z3**2) / (1 - Z3) * (-1) / (1 - 2 * Z3)
    assert v == ExactScalar(3, [F(-1, 7), F(-3, 7)])
    # brute-force complex cross-check at z = exp(2 pi i / 3)
    with mpmath.workprec(130):
        z = mpmath.exp(2j * mpmath.pi / 3)
        ref = (1 - z**2) / (1 - z) * (-1) / (1 - 2 * z)
        assert abs(v.to_complex(113) - ref) < 1e-25


def test_field_div_examples():
    w = field_div(1, 1 - Z3)
    assert w == (2 + Z3) / 3
    assert (w * (1 - Z3)).is_one()
    x = ExactScalar(5, [F(1, 3), F(2), F(0), F(-1)])
    assert field_div(x, ExactScalar.from_rational(1)) == x
    with pytest.raises(DivisionByZero):
        field_div(1, ExactScalar.from_rational(0))


def test_mixed_order_embedding():
    v = Z3 * Z4
    assert v.order == 12
    assert v == ExactScalar.zeta(12) ** 7


def test_scalar_text_round_trip():
    for s in ["0", "5", "-3/7", "cyclo(3)[-1/7, -3/7]", "cyclo(12)[1, 0, -2/3, 5]"]:
        assert format_scalar(parse_scalar(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("3.5")
    with pytest.raises(ValueError):
        parse_scalar("cyclo(3)[1]")


@pytest.mark.parametrize("order", [1, 3, 4, 5, 6])
def test_field_axioms_sampled(order):
    rng = random.Random(order)
    deg = euler_phi(order)

    def rand_el():
        return ExactScalar(order, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])

    for _ in range(200):
        x, y, z = rand_el(), rand_el(), rand_el()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert (x * (1 / x)).is_one()


def test_embedding_consistency():
    # field arithmetic followed by numeric embedding lands inside the
    # certified bound of the same expression done in ApproxScalar steps
    from qforge.approx import ApproxScalar

    rng = random.Random(7)
    for order in (3, 4, 5, 6):
        deg = euler_phi(order)
        for _ in range(20):
            x = ExactScalar(order, [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(deg)])
            y = ExactScalar(order, [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(deg)])
            ax = ApproxScalar.coerce(x)
            ay = ApproxScalar.coerce(y)
            approx = ax * ay + ax
            assert approx.certified
            with mpmath.workprec(150):
                exact = (x * y + x).to_complex(130)
                assert abs(approx.val - exact) <= approx.err + mpmath.mpf(2) ** -120


@given(st.lists(st.fractions(min_value=-10, max_value=10), min_size=0, max_size=9),
       st.sampled_from([1, 3, 4, 5, 6, 8, 12]))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(coeffs, order):
    v = cyclo_normalize(coeffs, order)
    assert cyclo_normalize(v.coeffs, order) == v
    assert len(v.coeffs) == euler_phi(order)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       st.sampled_from([3, 4, 5, 6]))
@settings(max_examples=200, deadline=None)
def test_normalize_is_ring_hom(p, q, order):
    # reduce-then-multiply equals multiply-then-reduce
    prod = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            prod[i + j] += pi * qj
    lhs = cyclo_normalize(p, order) * cyclo_normalize(q, order)
    assert lhs == cyclo_normalize(prod, order)
    s = [0] * max(len(p), len(q))
    for i, pi in enumerate(p):
        s[i] += pi
    for j, qj in enumerate(q):
        s[j] += qj
    assert cyclo_normalize(p, order) + cyclo_normalize(q, order) == cyclo_normalize(s, order)


def test_pow_and_lcm_orders():
    assert (Z3**3).is_one()
    assert (Z4**4).is_one()
    assert Z3**-1 == Z3**2
    v = ExactScalar.zeta(6)
    assert v == 1 + ExactScalar.zeta(3)  # zeta_6 = 1 + zeta_3
    assert math.lcm(3, 4) == (Z3 + Z4).order


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_hash_is_invariant_under_embed(order):
    rng = random.Random(order)
    for _ in range(10):
        x = ExactScalar(order, [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(euler_phi(order))])
        for target in (order * 2, order * 3, 12):
            if target % order == 0:
                y = x.embed(target)
                assert x == y and hash(x) == hash(y)
                assert len({x, y}) == 1
        # comparisons with a rational (int or Fraction) in Q(zeta_order)
        r = F(rng.randint(-5, 5), rng.randint(1, 3))
        v = ExactScalar.from_rational(r).embed(order)
        assert v == r and r == v and hash(v) == hash(r)
        assert v != r + 1 and not v == r - F(1, 7)
        assert (v == int(r)) == (r.denominator == 1)
        if order > 2:  # zeta_order is not rational
            assert v + ExactScalar.zeta(order) != r
    z3 = ExactScalar.zeta(3)
    assert len({z3, z3.embed(6), z3.embed(12)}) == 1
    assert hash(ExactScalar.zeta(6)) == hash(1 + z3)  # zeta_6 = 1 + zeta_3
