import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qforge import poly
from qforge.approx import ApproxScalar
from qforge.errors import UnboundSymbol, ZeroDenominator
from qforge.exact import ExactScalar
from qforge.families import family_qbinom2, family_qgauss
from qforge.poly import MultiPoly, RationalFunction as RF
from qforge.relations import TABLE_SHIFTS, qr_lookup

A, B, C, Q, X = (RF.var(s) for s in "abcqx")


COPIERS = [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy]


@pytest.mark.parametrize("copier", COPIERS, ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_keep_polys(copier):
    rel = qr_lookup((0, 3, 3, 0))
    poly = rel.Q.num
    pt = {"a": F(2), "b": F(3), "c": F(5), "q": F(7), "x": F(11)}
    value = poly.eval(pt)  # builds the evaluation plan on the instance
    for p in (MultiPoly.var("a"), MultiPoly.const(0), poly):
        back = copier(p)
        assert back == p and hash(back) == hash(p) and back.to_text() == p.to_text()
        assert back.vars == p.vars
    for f in (RF.var("a"), RF.const(F(-2, 3)), rel.Q, rel.R):
        back = copier(f)
        assert back == f and back.to_json() == f.to_json()
        with pytest.raises(TypeError):
            hash(back)
        assert back.num.terms == f.num.terms and back.den.terms == f.den.terms
    assert copier(poly).eval(pt) == value


def test_eval_table_entry():
    # Q and R of the (0,1,1,0) relation at (a,b,c,x) = (2,3,5,7)
    Qf = -(1 - A) * (C - A * B * X) / (A - C)
    Rf = A * (1 - C) / (A - C)
    pt = {"a": F(2), "b": F(3), "c": F(5), "x": F(7)}
    assert Qf.eval(pt) == F(37, 3)
    assert Rf.eval(pt) == F(8, 3)


def test_eval_zero_denominator():
    f = 1 / (1 - A)
    with pytest.raises(ZeroDenominator):
        f.eval({"a": F(1)})


def test_substitution_kills_factor():
    Qf = -(1 - A) * (C - A * B * X) / (A - C)
    assert family_qgauss().compose(Qf.num, (0, 0, 0, 0), Q, 0).is_zero()


def test_subs_example_0002():
    # R of (0,0,0,2) at b=-a, c=-q equals (1-x)/(1-a^2 x)
    Rf = (C + (1 - A - B) * X * Q) / (C - A * B * X * Q)
    fam = family_qbinom2()
    on_family = fam.compose(Rf.num, (0, 0, 0, 0), Q, 0) / fam.compose(Rf.den, (0, 0, 0, 0), Q, 0)
    assert on_family == (1 - X) / (1 - A * A * X)


def test_equality_is_equivalence_and_division():
    rng = random.Random(1)

    def rand_poly():
        p = MultiPoly.const(0, ("a", "b", "q"))
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
            p = p + MultiPoly(("a", "b", "q"), {exps: F(rng.randint(-5, 5) or 1)})
        return p

    for _ in range(30):
        f = RF(rand_poly(), rand_poly() + 1)
        g = RF(rand_poly() + 1, rand_poly() + 2)
        # reflexive / symmetric on an equivalent unreduced pair
        h = RF(f.num * g.den, f.den * g.den, normalize=False)
        assert f == h and h == f
        # (f*g)/g == f via cross-multiplication, tested by >= 40 random evals
        if not g.is_zero():
            fg_over_g = (f * g) / g
            assert fg_over_g == f
            agree = 0
            for _ in range(40):
                pt = {s: F(rng.randint(1, 40), rng.randint(41, 97)) for s in ("a", "b", "q")}
                try:
                    if fg_over_g.eval(pt) == f.eval(pt):
                        agree += 1
                except ZeroDenominator:
                    agree += 1
            assert agree == 40


def test_cancel_reduces():
    f = (A * B + C) * (1 - Q) / ((1 - Q) * (1 + Q))
    g = f.cancel()
    assert g == f
    assert g.den.degree_in("q") == 1


def test_normalize_sign_and_content():
    f = RF(MultiPoly.from_text("(2)*a"), MultiPoly.from_text("(-4)*q + (-2)"))
    # canonical: positive leading denominator coefficient
    assert f.den.leading()[1] > 0
    assert f == RF.var("a") * -1 / (2 * RF.var("q") + 1)


def test_poly_text_round_trip():
    examples = [
        "(-1)*a*b*x + c",
        "a^2*q^3 + (-5/3)*b + (7)",
        "0",
        "(1)",
        "x",
    ]
    for text in examples:
        p = MultiPoly.from_text(text)
        assert MultiPoly.from_text(p.to_text()) == p
    canonical = MultiPoly.from_text("(-1)*a*b*x + c").to_text()
    assert canonical == "(-1)*a*b*x + c"


def test_rf_json_round_trip():
    f = -(1 - A) * (C - A * B * X) / (A - C)
    obj = f.to_json()
    assert RF.from_json(obj) == f


def test_poly_eval_with_cyclotomic_point():
    z = ExactScalar.zeta(3)
    p = MultiPoly.from_text("a^2 + a + (1)")
    assert p.eval({"a": z}).is_zero()


def test_no_zero_coefficients_stored():
    p = MultiPoly(("a",), {(1,): F(2)}) + MultiPoly(("a",), {(1,): F(-2)})
    assert p.is_zero() and p.terms == {}


def test_pow_negative_swaps():
    f = (1 - A) / (1 - B)
    assert f**-2 == ((1 - B) * (1 - B)) / ((1 - A) * (1 - A))


def test_equal_polynomials_hash_equal():
    # == extends both sides to the union of their vars; the hash must not see them
    assert MultiPoly.const(1) == MultiPoly.const(1, ("a",)) == 1
    assert hash(MultiPoly.const(1)) == hash(MultiPoly.const(1, ("a",))) == hash(1)
    a = MultiPoly.var("a")
    assert hash(a.extend(("a", "b", "q"))) == hash(a)
    # a quotient is unhashable: equal quotients compare equal without a hash
    assert A * B / B == A == a and 2 * A * B / (3 * B) == F(2, 3) * a
    assert RF.const(F(3, 2)) == F(3, 2) and (A * A - B * B) / (A - B) == A + B
    for f in (A * B / B, A, 2 * A * B / (3 * B), RF.const(F(3, 2)), (A * A - B * B) / (A - B)):
        with pytest.raises(TypeError):
            hash(f)


def test_eval_unbound_symbol_is_typed():
    p = MultiPoly.from_text("a*b + (1)")
    with pytest.raises(UnboundSymbol, match=r"point does not bind \['b'\]"):
        p.eval({"a": F(2)})
    with pytest.raises(KeyError):  # UnboundSymbol stays a KeyError for old callers
        (A / B).eval({"a": F(2)})


# -- sparse Horner against the term-by-term evaluator it replaced ----------------------


def reference_eval(p: MultiPoly, point: dict):
    """Term-by-term evaluation with a per-call power cache (the evaluator
    before sparse Horner)."""
    missing = [v for v in p.vars if v not in point and p.degree_in(v) > 0]
    if missing:
        raise UnboundSymbol(f"point does not bind {missing}")
    pows: list[dict[int, object]] = [{} for _ in p.vars]

    def vpow(i: int, e: int):
        cache = pows[i]
        if e not in cache:
            cache[e] = point[p.vars[i]] ** e
        return cache[e]

    acc = None
    for exps, coeff in p.terms.items():
        term = coeff
        for i, e in enumerate(exps):
            if e:
                term = term * vpow(i, e)
        acc = term if acc is None else acc + term
    return F(0) if acc is None else acc


def reference_subs(f: RF, mapping: dict) -> RF:
    """Term-by-term substitution into numerator and denominator, each
    cancelled, then the quotient cancelled (the `subs` before sparse Horner)."""

    def poly_subs(p: MultiPoly) -> RF:
        out = None
        for exps, coeff in p.terms.items():
            term = RF.const(coeff)
            for v, e in zip(p.vars, exps):
                if not e:
                    continue
                rep = mapping.get(v)
                if rep is None:
                    rep = RF.var(v)
                elif not isinstance(rep, RF):
                    rep = RF.const(rep)
                term = term * rep**e
            out = term if out is None else out + term
        return RF.const(0) if out is None else out.cancel()

    num, den = poly_subs(f.num), poly_subs(f.den)
    if den.is_zero():
        raise ZeroDenominator("substitution makes denominator identically zero")
    return (num / den).cancel()


def _rand_rational(rng: random.Random) -> F:
    return F(rng.randint(-30, 30), rng.randint(1, 30))


def _rand_scalar(rng: random.Random, ring: str):
    if ring == "Q" or rng.random() < 0.2:
        return _rand_rational(rng) if rng.random() < 0.9 else rng.randint(-3, 3)
    order = 3 if ring == "Q(zeta_3)" else 4
    return ExactScalar(order, [_rand_rational(rng) for _ in range(rng.randint(1, 4))])


def assert_evals_match(p: MultiPoly, rng: random.Random):
    """new eval == reference eval, with the same type and text, at 200
    points over Q, Q(zeta_3) and Q(zeta_4)."""
    rings = ["Q", "Q(zeta_3)", "Q(zeta_4)"]
    for i in range(200):
        ring = rings[i % 3]
        point = {v: _rand_scalar(rng, ring) for v in "abcqx"}
        got, want = p.eval(point), reference_eval(p, point)
        assert type(got) is type(want)
        assert got == want and str(got) == str(want), (p, point)


@pytest.mark.parametrize("shift", TABLE_SHIFTS)
def test_horner_eval_matches_term_by_term_on_table_relations(shift):
    rel = qr_lookup(shift)
    rng = random.Random(sum(shift) + 8)
    for p in (rel.Q.num, rel.Q.den, rel.R.num, rel.R.den):
        assert_evals_match(p, rng)


_exponents = st.tuples(*[st.integers(0, 3)] * 5)
_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def sparse_polys(draw):
    names = tuple(sorted(draw(st.sets(st.sampled_from("abcqx")))))
    terms = draw(st.dictionaries(_exponents, _coeffs, max_size=8))
    return MultiPoly(names, {exps[:len(names)]: c for exps, c in terms.items()})


@seed(20261018)
@settings(max_examples=50, deadline=None, database=None)
@given(sparse_polys(), st.integers(0, 2**32))
def test_horner_eval_matches_term_by_term_on_random_polys(p, point_seed):
    assert_evals_match(p, random.Random(point_seed))


def test_subs_matches_term_by_term_substitution():
    # evaluation at a monomial map, unmapped symbols standing for
    # themselves, then cancelled
    for shift in TABLE_SHIFTS:
        rel = qr_lookup(shift)
        for f in (rel.Q, rel.R):
            # the last is sigma_1 of symmetry.apply_generator, a map of all four parameters
            for mapping in ({"x": C / (A * B)}, {"b": -A, "c": -Q},
                            {"a": X, "b": C / A, "c": B * X, "x": A}):
                got = f.eval({"a": A, "b": B, "c": C, "q": Q, "x": X, **mapping}).cancel()
                want = reference_subs(f, mapping)
                assert got == want and str(got) == str(want), (shift, mapping)


# -- the monomial branch: every value a constant times a Laurent monomial ----------------


W = RF.var("w")
MONOMIAL_POINTS = {
    "negative-exponents": {"a": A, "b": B, "c": C, "q": Q, "x": C / (A * B)},
    "kummer": {"a": A, "b": B, "c": B * Q / A, "q": Q, "x": -Q / A},
    "constants": {"a": -A, "b": F(3, 2) * B, "c": RF.const(-1), "q": Q, "x": RF.const(F(3, 2))},
    "x-one-symbolic-w": {"a": W * Q, "b": B, "c": W * B, "q": Q, "x": RF.const(1)},
    "rational-among-them": {"a": A, "b": B, "c": C, "q": F(1, 3), "x": -Q / A},
}


@pytest.mark.parametrize("point", MONOMIAL_POINTS.values(), ids=MONOMIAL_POINTS)
def test_monomial_eval_matches_rf_arithmetic(monkeypatch, point):
    # num and den term for term: with a monomial den, the normalized pair
    # of a rational function is unique
    taken, real = [], poly._monomial_image
    monkeypatch.setattr(poly, "_monomial_image", lambda *args: taken.append(1) or real(*args))
    for shift in ((0, 1, 1, 0), (0, 0, 0, 2)):
        rel = qr_lookup(shift)
        for p in (rel.Q.num, rel.Q.den, rel.R.num, rel.R.den):
            got, want = p.eval(point), reference_eval(p, point)
            assert (got.num.to_text(), got.den.to_text()) == (want.num.to_text(), want.den.to_text())
    assert len(taken) == 8


# rational and monomial columns interleaved in variable order
MIXED_POINTS = {
    "rationals-interleaved": {"a": F(-2, 3), "b": B * B / Q, "c": 3, "q": Q, "x": -Q / (A * C)},
    "negative-exponents": {"a": F(7, 5), "b": Q**-3 * B, "c": C / (Q * Q), "q": F(1, 3), "x": F(-2, 9) * A**-2},
    "constants": {"a": RF.const(-1), "b": F(3, 2), "c": RF.const(F(3, 2)), "q": Q, "x": F(-5, 7)},
    "zero-among-them": {"a": 0, "b": -B / Q, "c": F(0), "q": Q * Q, "x": RF.const(F(3, 2))},
}


@pytest.mark.parametrize("point", MIXED_POINTS.values(), ids=MIXED_POINTS)
def test_monomial_eval_with_rational_values_matches_rf_arithmetic(monkeypatch, point):
    # seeded polynomials in which every variable occurs
    taken, real = [], poly._monomial_image
    monkeypatch.setattr(poly, "_monomial_image", lambda *args: taken.append(1) or real(*args))
    rng = random.Random(11)
    for _ in range(12):
        terms = {tuple(rng.randint(0, 6) for _ in range(5)): F(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 40))}
        terms[(1, 1, 1, 1, 1)] = 1
        p = MultiPoly(("a", "b", "c", "q", "x"), terms)
        got, want = p.eval(point), RF.const(reference_eval(p, point))
        assert (got.num.to_text(), got.den.to_text()) == (want.num.to_text(), want.den.to_text())
    assert len(taken) == 12


def test_monomial_eval_widens_past_127():
    # a^100 at a^2/q reaches a^200 and q^240 with b^2: fields of 16 bits
    p = MultiPoly.from_text("a^100*b + (-3)*b^2 + (1)")
    point = {"a": A * A / Q, "b": F(3, 2) * Q**70}
    got, want = p.eval(point), reference_eval(p, point)
    assert got.num.width == 16
    assert (got.num.to_text(), got.den.to_text()) == (want.num.to_text(), want.den.to_text())


def test_monomial_eval_widens_past_127_with_a_rational_value():
    # the same 16-bit fields, with b at q^-70 and c rational
    p = MultiPoly.from_text("a^100*b*c + (-3)*b^2*c^5 + (2/7)*c")
    point = {"a": A * A / Q, "b": F(3, 2) * Q**-70, "c": F(-1, 3)}
    got, want = p.eval(point), reference_eval(p, point)
    assert got.num.width == 16
    assert (got.num.to_text(), got.den.to_text()) == (want.num.to_text(), want.den.to_text())


def test_eval_rejects_other_rings():
    p = MultiPoly.from_text("a*b + (2/3)*a + (1)")
    with pytest.raises(TypeError, match="float"):
        p.eval({"a": 0.5, "b": F(1, 3)})
    with pytest.raises(TypeError, match="ApproxScalar"):
        p.eval({"a": F(1, 2), "b": ApproxScalar.coerce(F(1, 3))})
    with pytest.raises(TypeError, match="mixing"):
        p.eval({"a": B / C, "b": ExactScalar.zeta(3)})


@pytest.mark.parametrize("value", [1 + B, B / (1 - C), (B + C) / Q], ids=["sum", "over-a-sum", "sum-over-q"])
def test_eval_rejects_a_rational_function_that_is_not_a_monomial(value):
    # the only RationalFunction values are monomial maps: a family's values
    # and their steps
    p = MultiPoly.from_text("a*b + (2/3)*a + (1)")
    with pytest.raises(TypeError, match="not a constant times a Laurent monomial"):
        p.eval({"a": value, "b": B})
    with pytest.raises(TypeError, match="not a constant times a Laurent monomial"):
        p.eval({"a": F(1, 2), "b": value})


def test_eval_takes_a_zero_rational_function_as_the_int_zero():
    p = MultiPoly.from_text("a^2*b + (-3)*b*c + (2/3)*c + (1)")
    zero = RF.const(0)
    for point, want in (({"a": zero, "b": B, "c": C}, 1 - 3 * B * C + F(2, 3) * C),
                        ({"a": A, "b": zero, "c": -Q / A}, 1 - F(2, 3) * Q / A)):
        got = p.eval(point)
        assert isinstance(got, RF) and got == want
        assert got.to_json() == p.eval({k: 0 if v is zero else v for k, v in point.items()}).to_json()
    assert p.eval({"a": zero, "b": zero, "c": zero}) == 1
    assert type(p.eval({"a": zero, "b": F(1, 2), "c": 0})) is F


def test_float_operands_raise_type_error():
    with pytest.raises(TypeError):
        1.5 / RF.var("a")
    with pytest.raises(TypeError):
        1.5 - MultiPoly.var("a")
    with pytest.raises(TypeError):
        1.5 * RF.var("a")
    with pytest.raises(TypeError):
        RF.var("a") / 1.5
