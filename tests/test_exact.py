import copy
import functools
import math
import operator
import pickle
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qforge.errors import DivisionByZero
from qforge.exact import (
    ExactScalar,
    cyclotomic_poly,
    euler_phi,
    format_scalar,
    parse_scalar,
)

Z3 = ExactScalar.zeta(3)
Z4 = ExactScalar.zeta(4)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # the least order with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_poly(105)
    assert all(abs(c) <= 1 for n in range(1, 105) for c in cyclotomic_poly(n))


def test_cyclotomic_product_over_divisors_is_xn_minus_1():
    for n in range(1, 111):
        assert all(type(c) is int for c in cyclotomic_poly(n))
        assert len(cyclotomic_poly(n)) == euler_phi(n) + 1
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                g = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(g) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(g):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_root_order():
    # a root of unity of Q(zeta_n) has order dividing lcm(2, n); an order-6
    # root lives in Q(zeta_3) as -zeta_3
    z5 = ExactScalar.zeta(5)
    cases = [(ExactScalar.from_rational(1), 1), (ExactScalar.from_rational(-1), 2), (Z3, 3),
             (Z3 * Z3, 3), (-Z3, 6), (Z4, 4), (Z4 * Z4, 2), (z5**3, 5), (-z5, 10),
             (ExactScalar.from_rational(2), None), (Z3 + 1 + Z3 * Z3, None), (Z3 * F(1, 2), None)]
    assert [v.root_order() for v, _ in cases] == [order for _, order in cases]


def test_normalize_zeta3_relation():
    # 1 + z + z^2 = 0
    assert ExactScalar(3, [1, 1, 1]).is_zero()


def test_normalize_zeta4_square():
    v = ExactScalar(4, [0, 0, 1])
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
    w = ExactScalar.coerce(1) / (1 - Z3)
    assert w == (2 + Z3) / 3
    assert (w * (1 - Z3)).is_one()
    x = ExactScalar(5, [F(1, 3), F(2), F(0), F(-1)])
    assert x / ExactScalar.from_rational(1) == x
    with pytest.raises(DivisionByZero):
        ExactScalar.coerce(1) / ExactScalar.from_rational(0)


def test_mixed_order_embedding():
    v = Z3 * Z4
    assert v.order == 12
    assert v == ExactScalar.zeta(12) ** 7


def test_scalar_text_round_trip():
    for s in ["0", "5", "-3/7", "cyclo(3)[-1/7, -3/7]", "cyclo(12)[1, 0, -2/3, 5]"]:
        assert format_scalar(parse_scalar(s)) == s


@pytest.mark.parametrize("copier", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
def test_pickle_and_copy_keep_scalars(copier):
    for s in ["0", "-3/7", "cyclo(3)[-1/7, -3/7]", "cyclo(12)[1, 0, -2/3, 5]"]:
        v = parse_scalar(s)
        back = copier(v)
        assert back == v and hash(back) == hash(v) and format_scalar(back) == s
        assert (back.order, back.nums, back.den) == (v.order, v.nums, v.den)


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
    # error bound of the same expression done in ApproxScalar steps
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
            with mpmath.workprec(150):
                exact = (x * y + x).to_complex(130)
                assert abs(approx.val - exact) <= approx.err + mpmath.mpf(2) ** -120


@given(st.lists(st.fractions(min_value=-10, max_value=10), min_size=0, max_size=9),
       st.sampled_from([1, 3, 4, 5, 6, 8, 12]))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(coeffs, order):
    v = ExactScalar(order, coeffs)
    assert ExactScalar(order, v.coeffs) == v
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
    lhs = ExactScalar(order, p) * ExactScalar(order, q)
    assert lhs == ExactScalar(order, prod)
    s = [0] * max(len(p), len(q))
    for i, pi in enumerate(p):
        s[i] += pi
    for j, qj in enumerate(q):
        s[j] += qj
    assert ExactScalar(order, p) + ExactScalar(order, q) == ExactScalar(order, s)


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


def test_hash_separates_traceless_values():
    # Tr(zeta_4) = 0 = Tr(0), but Tr(zeta_4^2) = -2
    assert hash(ExactScalar.zeta(4)) != hash(0)


def test_constructor_rejects_inexact_coefficients():
    # a float would be stored as its binary fraction, not the value meant
    for order, coeffs in ((1, [0.1]), (4, [F(1, 3), 0.5]), (3, [1j, 0]), (6, [F(1), complex(2)])):
        with pytest.raises(TypeError, match="inexact coefficient"):
            ExactScalar(order, coeffs)
    with pytest.raises(TypeError):
        ExactScalar.from_rational(0.1)
    with pytest.raises(TypeError):
        ExactScalar(4, [1, 0.5, 2])
    with pytest.raises(TypeError):
        ExactScalar.coerce(0.1)
    with pytest.raises(TypeError):
        Z4 * 0.5
    assert ExactScalar(1, [F(1, 10)]) == F(1, 10)


# -- reference: the Fraction-coefficient arithmetic the integer form replaced --
# (schoolbook product reduced by polynomial division, eager embedding into the
# lcm order, extended Euclid; the hash from traces summed over the conjugates)
def ref_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_poly_mul(f, g):
    if not f or not g:
        return []
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
    return ref_trim(out)


def ref_poly_sub(f, g):
    out = [F(0)] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] -= c
    return ref_trim(out)


def ref_divmod(f, g):
    f = ref_trim(list(f))
    q = [F(0)] * max(0, len(f) - len(g) + 1)
    inv_lead = 1 / F(g[-1])
    while len(f) >= len(g):
        shift = len(f) - len(g)
        coef = f[-1] * inv_lead
        q[shift] = coef
        for i, gi in enumerate(g):
            f[shift + i] -= coef * gi
        ref_trim(f)
    return ref_trim(q), f


def ref_reduce(coeffs, order):
    _, rem = ref_divmod(ref_trim([F(c) for c in coeffs]), list(cyclotomic_poly(order)))
    deg = euler_phi(order)
    return (order, tuple((rem + [F(0)] * deg)[:deg]))


def ref_coerce(v):
    return v if isinstance(v, tuple) else (1, (F(v),))


def ref_embed(v, target):
    order, coeffs = v
    if order == target:
        return v
    k = target // order
    raw = [F(0)] * (len(coeffs) * k + 1)
    for i, c in enumerate(coeffs):
        raw[i * k] += c
    return ref_reduce(raw, target)


def ref_align(x, y):
    x, y = ref_coerce(x), ref_coerce(y)
    m = math.lcm(x[0], y[0])
    return ref_embed(x, m), ref_embed(y, m)


def ref_add(x, y):
    x, y = ref_align(x, y)
    return (x[0], tuple(a + b for a, b in zip(x[1], y[1])))


def ref_neg(x):
    x = ref_coerce(x)
    return (x[0], tuple(-c for c in x[1]))


def ref_sub(x, y):
    return ref_add(x, ref_neg(y))


def ref_mul(x, y):
    x, y = ref_align(x, y)
    return ref_reduce(ref_poly_mul(list(x[1]), list(y[1])), x[0])


def ref_inverse(x):
    order, coeffs = ref_coerce(x)
    if not any(coeffs):
        raise DivisionByZero("inverse of zero")
    if order == 1:
        return (1, (1 / coeffs[0],))
    r0, r1 = list(cyclotomic_poly(order)), ref_trim(list(coeffs))
    s0, s1 = [], [F(1)]
    while True:
        q, r = ref_divmod(r0, r1)
        if not r:
            break
        s0, s1 = s1, ref_poly_sub(s0, ref_poly_mul(q, s1))
        r0, r1 = r1, r
    return ref_reduce([c / r1[0] for c in s1], order)


def ref_div(x, y):
    return ref_mul(x, ref_inverse(y))


def ref_pow(x, e):
    if e < 0:
        return ref_pow(ref_inverse(x), -e)
    out, base = (1, (F(1),)), x
    while e:
        if e & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        e >>= 1
    return out


def ref_eq(x, y):
    x, y = ref_align(x, y)
    return x[1] == y[1]


@functools.cache
def ref_ramanujan(n, j):
    """Tr(zeta_n^j), the sum of zeta_n^(jk) over the units k mod n: an
    integer, so the rounded float sum of the cosines is exact."""
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    return round(sum(math.cos(2 * math.pi * j * k / n) for k in units))


def ref_mean_conjugate(v):
    """Tr(v)/phi(order), the mean of the Galois conjugates of v."""
    order, coeffs = v
    return sum(c * ref_ramanujan(order, j) for j, c in enumerate(coeffs)) / euler_phi(order)


def ref_hash(v):
    order, coeffs = v
    if not any(coeffs[1:]):
        return hash(coeffs[0])
    return hash((ref_mean_conjugate(v), ref_mean_conjugate(ref_mul(v, v))))


def ref_str(v):
    order, coeffs = v
    text = [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in coeffs]
    return text[0] if order == 1 else f"cyclo({order})[{', '.join(text)}]"


# -- operands -------------------------------------------------------------------
ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24, 30)
small = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def elements(draw, order):
    """(ExactScalar, reference) pairs of the given order: zero, a reduced
    coefficient vector, or a longer polynomial the constructor reduces."""
    deg = euler_phi(order)
    kind = draw(st.sampled_from(("zero", "reduced", "reduced", "long")))
    if kind == "zero":
        coeffs = [0] * deg
    elif kind == "reduced":
        coeffs = draw(st.lists(small, min_size=deg, max_size=deg))
    else:
        coeffs = draw(st.lists(small, min_size=deg + 1, max_size=2 * deg + 1))
    return ExactScalar(order, coeffs), ref_reduce(coeffs, order)


rational_operands = st.one_of(st.integers(-20, 20), small, st.sampled_from([0, 1, -1, F(0)]))
OPS = {"+": (operator.add, ref_add), "-": (operator.sub, ref_sub),
       "*": (operator.mul, ref_mul), "/": (operator.truediv, ref_div)}


@st.composite
def cases(draw):
    """An operator with an ExactScalar on at least one side: two elements
    of the same order or of two orders, or an element and an int or
    Fraction on either side, or an element to an int power."""
    op = draw(st.sampled_from(("+", "-", "*", "/", "**")))
    order = draw(st.sampled_from(ORDERS))
    x = draw(elements(order))
    if op == "**":
        return op, x, draw(st.integers(-3, 4))
    kind = draw(st.sampled_from(("same", "mixed", "rational_right", "rational_left")))
    if kind in ("same", "mixed"):
        other = order if kind == "same" else draw(st.sampled_from(ORDERS))
        return op, x, draw(elements(other))
    r = draw(rational_operands)
    return (op, x, (r, r)) if kind == "rational_right" else (op, (r, r), x)


def assert_matches(got, want, operands):
    order, coeffs = want
    assert type(got) is ExactScalar
    assert (got.order, got.coeffs) == (order, coeffs)
    assert all(type(c) is F for c in got.coeffs)
    assert str(got) == ref_str(want)
    assert hash(got) == ref_hash(want)
    for v, ref in operands:
        assert (got == v) == ref_eq(want, ref) == (v == got)
    if not any(coeffs[1:]):
        assert got == coeffs[0] and coeffs[0] == got and got.is_rational()


@seed(20261019)
@settings(max_examples=1000, deadline=None, database=None)
@given(cases())
def test_integer_arithmetic_matches_fraction_reference(case):
    op, (x, rx), y = case
    if op == "**":
        operands = [(x, rx)]
        call, ref = lambda: x ** y, lambda: ref_pow(rx, y)
    else:
        (y, ry), (fast, slow) = y, OPS[op]
        operands = [(x, rx), (y, ry)]
        call, ref = lambda: fast(x, y), lambda: slow(rx, ry)
    try:
        want = ref()
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            call()
        return
    assert_matches(call(), want, operands)
