"""Differential tests of the integer polynomial core against the Fraction
polynomials it replaced (tests/ref_poly.py): the same text, terms, hash,
arithmetic, evaluation, substitution and cancellation."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import ref_poly
from heap_division import heap_divide, heap_quotient
from qforge import poly
from qforge.errors import ZeroDenominator
from qforge.exact import ExactScalar
from qforge.poly import MultiPoly, RationalFunction as RF
from qforge.relations import TABLE_SHIFTS, ThreeTermRelation, qr_lookup

DERIVE_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "derive.json"


def to_ref(p: MultiPoly) -> ref_poly.MultiPoly:
    return ref_poly.MultiPoly(p.vars, dict(p.terms))


def ref_rf(f: RF) -> ref_poly.RationalFunction:
    return ref_poly.RationalFunction(to_ref(f.num), to_ref(f.den), normalize=False)


def assert_same(p: MultiPoly, r: ref_poly.MultiPoly):
    """One polynomial in both representations: same variables, terms,
    text and hash, and the integer form in lowest terms."""
    assert p.vars == r.vars
    assert dict(p.terms) == r.terms
    assert p.to_text() == r.to_text()
    assert hash(p) == hash(r)
    assert p.den > 0 and all(type(c) is int and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert max((max(e, default=0) for e in r.terms), default=0) < 2 ** (p.width - 1)


def assert_rf_same(f: RF, r: ref_poly.RationalFunction):
    assert_same(f.num, r.num)
    assert_same(f.den, r.den)


def relation_polys():
    rels = [qr_lookup(s) for s in TABLE_SHIFTS]
    refs = json.loads(DERIVE_REFS.read_text())["shifts"]
    rels += [ThreeTermRelation.from_json(v["relation"]) for v in refs.values()]
    return rels


RELATIONS = relation_polys()


def _rand_point(rng: random.Random, ring: str) -> dict:
    def value():
        r = F(rng.randint(-30, 30), rng.randint(1, 30))
        if ring == "int":
            return rng.randint(-5, 5)
        if ring == "Q" or rng.random() < 0.3:
            return r if rng.random() < 0.9 else rng.randint(-3, 3)
        order = 3 if ring == "Q(zeta_3)" else 4
        return ExactScalar(order, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)])

    return {v: value() for v in "abcqx"}


def assert_evals_same(p: MultiPoly, r: ref_poly.MultiPoly, rng: random.Random, points: int):
    for i in range(points):
        point = _rand_point(rng, ("Q", "int", "Q(zeta_3)", "Q(zeta_4)")[i % 4])
        got, want = p.eval(point), r.eval(point)
        assert type(got) is type(want)
        assert got == want and str(got) == str(want), (p, point)


@pytest.mark.parametrize("index", range(len(RELATIONS)))
def test_relation_polys_match_reference(index):
    rel = RELATIONS[index]
    rng = random.Random(index)
    polys = [rel.Q.num, rel.Q.den, rel.R.num, rel.R.den]
    refs = [to_ref(p) for p in polys]
    for p, r in zip(polys, refs):
        assert_same(p, r)
        assert_same(MultiPoly.from_text(p.to_text()), ref_poly.MultiPoly.from_text(r.to_text()))
        assert MultiPoly.from_text(p.to_text()) == p
        assert_evals_same(p, r, rng, 12 if len(r.terms) < 200 else 4)
    # the sums, differences and the products the ladder forms
    for (p, r), (s, t) in [((polys[0], refs[0]), (polys[2], refs[2])),
                           ((polys[1], refs[1]), (polys[3], refs[3]))]:
        assert_same(p + s, r + t)
        assert_same(p - s, r - t)
        assert (p - p).is_zero() and p - p == 0
    if len(refs[1].terms) * len(refs[3].terms) <= 40_000:
        assert_same(polys[1] * polys[3], refs[1] * refs[3])
        assert_same(polys[3] ** 2, refs[3] * refs[3])
    assert_same(polys[1] * F(-3, 7), refs[1] * F(-3, 7))


@pytest.mark.parametrize("shift", TABLE_SHIFTS)
def test_rational_function_ops_match_reference(shift):
    rel = qr_lookup(shift)
    Q, R = rel.Q, rel.R
    rQ, rR = ref_rf(Q), ref_rf(R)
    assert_rf_same(Q, rQ)
    assert_rf_same(Q + R, rQ + rR)
    assert_rf_same(Q * R, rQ * rR)
    assert_rf_same(Q / R, rQ / rR)
    assert_rf_same(R ** -2, ref_poly.RationalFunction(rR.den * rR.den, rR.num * rR.num))
    # an unreduced pair cancels to the same normal form
    g = RF.var("a") - RF.var("c") * RF.var("q")
    rg = ref_rf(g)
    unreduced = RF(Q.num * g.num, Q.den * g.num, normalize=False)
    assert_rf_same(unreduced.cancel(), ref_poly.RationalFunction(
        rQ.num * rg.num, rQ.den * rg.num, normalize=False).cancel())
    assert unreduced == Q
    with pytest.raises(TypeError):
        hash(unreduced)
    a, b, c, q = (RF.var(s) for s in "abcq")
    ra, rb, rc, rq = (ref_poly.RationalFunction.var(s) for s in "abcq")
    # evaluation at a monomial map, cancelled, against the reference's subs
    for mapping, rmapping in (({"x": c / (a * b)}, {"x": rc / (ra * rb)}),
                              ({"b": -a, "c": -q}, {"b": -ra, "c": -rq}),
                              ({"a": q * q, "x": F(1, 3)}, {"a": rq * rq, "x": F(1, 3)})):
        point = {**{s: RF.var(s) for s in "abcqx"}, **mapping}
        for f, rf in ((Q, rQ), (R, rR)):
            assert_rf_same(f.eval(point).cancel(), rf.subs(rmapping))


def test_zero_constant_and_one_variable():
    cases = [
        (MultiPoly((), {}), ref_poly.MultiPoly((), {})),
        (MultiPoly.const(0, ("a", "q")), ref_poly.MultiPoly.const(0, ("a", "q"))),
        (MultiPoly.const(F(-5, 6)), ref_poly.MultiPoly.const(F(-5, 6))),
        (MultiPoly.const(4, ("b",)), ref_poly.MultiPoly.const(4, ("b",))),
        (MultiPoly.var("q"), ref_poly.MultiPoly.var("q")),
        (MultiPoly(("x",), {(3,): F(1, 2), (0,): F(-1, 3)}),
         ref_poly.MultiPoly(("x",), {(3,): F(1, 2), (0,): F(-1, 3)})),
    ]
    rng = random.Random(5)
    for p, r in cases:
        assert_same(p, r)
        for s, t in cases:
            assert_same(p + s, r + t)
            assert_same(p - s, r - t)
            assert_same(p * s, r * t)
            assert (p == s) == (r == t)
            if p == s:
                assert hash(p) == hash(s)
        assert_same(p ** 3, r ** 3)
        assert_evals_same(p, r, rng, 8)
        assert MultiPoly.from_text(p.to_text()) == p
    assert MultiPoly.const(F(-5, 6)).eval({}) == F(-5, 6)
    assert type(MultiPoly((), {}).eval({"a": ExactScalar.zeta(3)})) is F


# -- packed fields at and past their width -----------------------------------------------

# exponents near the top of a field: 127 is the largest of an 8-bit field
# with its top bit clear, 128 needs 16 bits
_near_top = st.sampled_from([0, 1, 2, 3, 62, 63, 64, 65, 126, 127, 128, 129])
_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def packed_polys(draw):
    names = tuple(sorted(draw(st.sets(st.sampled_from("abcqx"), min_size=1))))
    exps = st.tuples(*[_near_top] * len(names))
    terms = draw(st.dictionaries(exps, _coeffs, max_size=5))
    return MultiPoly(names, terms)


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@given(packed_polys(), packed_polys(), st.integers(0, 2**32))
def test_packed_arithmetic_matches_reference(p, s, point_seed):
    r, t = to_ref(p), to_ref(s)
    assert_same(p, r)
    assert_same(p + s, r + t)
    assert_same(p - s, r - t)
    assert_same(p * s, r * t)
    assert_same(p ** 2, r ** 2)
    assert (p == s) == (r == t)
    assert (p * s == s * p) and hash(p * s) == hash(s * p)
    assert MultiPoly.from_text(p.to_text()) == p
    assert_evals_same(p * s, r * t, random.Random(point_seed), 4)


def test_product_widens_the_fields():
    a = MultiPoly.var("a")
    p = a ** 127 + MultiPoly.var("q")
    assert p.width == 8
    for prod in (p * a, (a ** 64) * (a ** 64), p * p):
        assert prod.width == 16
        assert_same(prod, to_ref(prod))
    assert (a ** 127) * a == a ** 128 == MultiPoly(("a",), {(128,): 1})
    assert hash((a ** 127) * a) == hash(MultiPoly(("a",), {(128,): 1}))
    # a wide and a narrow polynomial align to the wider field
    wide = a ** 200 - 1
    assert wide.width == 16 and (wide + p).width == 16
    assert_same(wide * p, to_ref(wide) * to_ref(p))
    assert wide * p - p * wide == 0


def assert_quotient(got: MultiPoly, want: MultiPoly):
    assert got == want and hash(got) == hash(want)
    assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1
    assert all(type(c) is int and c for c in got.nums.values())


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(packed_polys(), packed_polys(), st.sampled_from([1, -1, F(-2, 3), 5]))
def test_exact_division_inverts_the_product(p, f, lead):
    # p and f over mixed variable sets, exponents near and past a field's
    # top bit, f's leading coefficient 1, -1, -2/3 or 5
    if f.is_zero():
        f = MultiPoly.var("q")
    f = f * (F(lead) / f.leading()[1])
    assert f.leading()[1] == lead
    prod = p * f
    # divide takes a monomial or a binomial; a longer f goes to the heap
    divide = MultiPoly.divide if len(f.nums) <= 2 else heap_divide
    if len(f.nums) > 2:
        with pytest.raises(ValueError, match="monomial or a binomial"):
            prod.divide(f)
    assert_quotient(divide(prod, f), p)
    assert_quotient(divide(MultiPoly.const(0, p.vars), f), MultiPoly.const(0))
    if not f.is_const():
        assert divide(prod + 1, f) is None
        assert divide(prod * f + f.leading()[1], f) is None


def test_exact_division_edges():
    a, b, q, x = (MultiPoly.var(s) for s in "abqx")
    f = a * q**2 - b
    assert_quotient((f**3 * (x + 1)).divide(f), f**2 * (x + 1))
    # f^2 has three terms: divide refuses it, the heap oracle divides
    with pytest.raises(ValueError, match="monomial or a binomial"):
        (f**3 * (x + 1)).divide(f**2)
    assert_quotient(heap_divide(f**3 * (x + 1), f**2), f * (x + 1))
    assert ((a + 1) * (a - 1) + 2).divide(a + 1) is None  # the remainder is 2
    assert (2 * a + 1).divide(a) is None  # 1 is not a multiple of a
    assert_quotient((2 * a + 2).divide(3 * a + 3), MultiPoly.const(F(2, 3)))
    # dividing q^3 + q x^44 by q + x^100 in 8-bit fields reaches q x^200
    # and then x^300, which would carry into q's field and cancel q x^44:
    # a field that sets its top bit ends the division
    p, f = q**3 + q * x**44, q + x**100
    assert p.width == f.width == 8
    assert p.divide(f) is None
    assert_quotient((p * f).divide(f), p)
    with pytest.raises(ZeroDenominator):
        a.divide(MultiPoly.const(0))


def test_x_coefficient_values_split_packed_monomials():
    # sum n_e X^e / d is p at x = X for deg_x(p) + 1 distinct X, so the
    # n_e / d are the values of p's x-coefficients
    rng = random.Random(5)
    for rel in RELATIONS[:8]:
        p = rel.Q.num * rel.R.den
        point = {v: F(rng.randint(1, 30), rng.randint(1, 30)) for v in "abcq"}
        vals, d = p.eval_by_power("x", point)
        assert d > 0 and all(type(c) is int and c for c in vals.values())
        assert math.gcd(d, *vals.values()) == 1
        for X in range(1, p.degree_in("x") + 2):
            assert sum(F(c, d) * X**e for e, c in vals.items()) == p.eval({**point, "x": F(X)})
    # no x, and a zero coefficient left out
    vals, d = MultiPoly.from_text("a*b + (-1)*a").eval_by_power("x", {"a": F(1, 2), "b": 1})
    assert vals == {} and d > 0
    vals, d = MultiPoly.from_text("(2)*a*x^3 + q").eval_by_power("x", {"a": F(1, 3), "q": 2})
    assert {e: F(c, d) for e, c in vals.items()} == {3: F(2, 3), 0: 2}


@st.composite
def short_divisors(draw):
    """A monomial or a binomial with small integer coefficients."""
    names = tuple(sorted(draw(st.sets(st.sampled_from("abcqx"), min_size=1))))
    exps = st.tuples(*[_near_top] * len(names))
    coeffs = st.sampled_from([1, -1, 2, -3, 5])
    return MultiPoly(names, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=2)))


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(packed_polys(), short_divisors(), packed_polys(), st.sampled_from(["product", "perturbed", "any"]))
def test_merge_division_matches_the_heap(p, f, extra, mode):
    # the dividend a multiple of f, a multiple plus another polynomial,
    # or any polynomial: the merge returns what the heap returns
    dividend = {"product": p * f, "perturbed": p * f + extra, "any": p}[mode]
    dividend, f = poly._align(dividend, f)
    tops = poly._layout(len(f.vars), f.width)[2]
    fnums = {k: c // math.gcd(*f.nums.values()) for k, c in f.nums.items()}
    got = poly._quotient(dividend.nums, fnums, tops)
    assert got == heap_quotient(dividend.nums, fnums, tops)
    if mode == "product":
        assert got is not None


def test_merge_division_edges():
    a, b, q, x = (MultiPoly.var(s) for s in "abqx")
    # a monomial divisor that misses one term, and one that divides all
    assert (a * b + a**2).divide(b) is None
    assert_quotient((6 * a**2 * b + 4 * a * b**3).divide(2 * a * b), 3 * a + 2 * b**2)
    # a coefficient remainder: 2a + 3 is primitive, 1 is not a multiple of 2
    assert (a + 1).divide(2 * a + 3) is None
    assert (4 * a**2 + 12 * a + 9 + 1).divide(2 * a + 3) is None
    # generated keys that meet the dividend's keys and cancel them
    assert_quotient((a**5 - b**5).divide(a - b), sum((a**i * b**(4 - i) for i in range(5)), 0 * a))
    assert_quotient((q**2 * x - x**3).divide(q - x), q * x + x**2)


# -- what the benchmark's tracer wraps ------------------------------------------------------


def test_tracer_targets_exist():
    """perfbench/tracer.py wraps these with vars(cls)[attr] and weighs an
    eval by len(p.terms)."""
    for attr in ("__mul__", "__rmul__", "eval", "_to_sym", "_from_sym"):
        assert attr in vars(MultiPoly)
    for attr in ("eval", "cancel"):
        assert attr in vars(RF)
    assert poly._sym_ring(poly.RELATION_VARS) is not None
    p = MultiPoly.from_text("a*b + (2/3)*q + (1)")
    assert len(p.terms) == 3
    assert p.terms == {(1, 1, 0): 1, (0, 0, 1): F(2, 3), (0, 0, 0): 1}
    assert all(type(c) is F for c in p.terms.values())
    assert p.terms is p.terms  # built once
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0)] = 2
