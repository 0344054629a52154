import math
import random
from fractions import Fraction as F

import pytest
from heap_division import heap_divide

from qforge.errors import DegenerateFamily
from qforge.exact import ExactScalar, cyclotomic_poly
from qforge.families import (
    ParamFamily,
    _root_binding,
    family_qbinom2,
    family_qgauss,
    family_qkummer,
    family_root_of_unity,
    solution_families,
)
from qforge.poly import MultiPoly, RationalFunction as RF
from qforge.qseries import Phi21Params
from qforge.relations import qr_lookup

A, B, C, Q, X = (RF.var(s) for s in "abcqx")


def _names(shift):
    return [f.name for f in solution_families(shift)]


def test_registered_families_for_table_shifts():
    assert "(a, b, c, c/(ab))" in _names((0, 1, 1, 0))
    assert "(a, -a, -q, x)" in _names((0, 0, 0, 2))
    assert "(a, b, bq/a, -q/a)" in _names((0, 2, 2, 0))
    assert "(a, b, bq/a, -q/a)" in _names((1, 2, 1, -1))
    assert "(z3*q, b, z3*b, 1)" in _names((0, 3, 3, 0))


def test_pattern_matching():
    assert "(a, -a, -q, x)" in _names((2, 2, 0, 2))
    assert "(a, b, c, c/(ab))" in _names((1, 1, 2, 0))
    assert "(a, b, bq/a, -q/a)" in _names((2, 4, 2, -2))
    assert "(z4*q, b, z4*b, 1)" in _names((0, 4, 4, 0))
    assert _names((5, 7, 1, 2)) == []
    # odd l does not match the kummer pattern
    assert "(a, b, bq/a, -q/a)" not in _names((1, 3, 2, -1))


def test_remark2_exclusions():
    one = RF.const(1)
    zero = RF.const(0)
    with pytest.raises(DegenerateFamily):
        ParamFamily("bad", ("b", "c", "x"), {"a": one, "b": B, "c": C, "x": X})
    with pytest.raises(DegenerateFamily):
        ParamFamily("bad", ("a", "c", "x"), {"a": A, "b": one, "c": C, "x": X})
    with pytest.raises(DegenerateFamily):
        ParamFamily("bad", ("b", "x"), {"a": zero, "b": B, "c": zero, "x": X})
    with pytest.raises(DegenerateFamily):
        ParamFamily("bad", ("a", "x"), {"a": A, "b": zero, "c": zero, "x": X})
    with pytest.raises(DegenerateFamily):
        ParamFamily("bad", ("a", "b", "c"), {"a": A, "b": B, "c": C, "x": zero})
    with pytest.raises(DegenerateFamily):
        ParamFamily("bad", ("a", "b"), {"a": A, "b": B, "c": zero, "x": zero})


def _at_step(fam, shift, step):
    """The family's parameters at step `step` of the shift: moved step - 1 times."""
    return Phi21Params(q=Q, **fam.assignment).shifted(shift, step - 1)


def test_shift_params_step_one_is_identity():
    fam = family_qkummer()
    out = _at_step(fam, (1, 2, 1, -1), 1)
    assert all(getattr(out, k) == fam.assignment[k] for k in "abcx")


def test_shift_params_kummer_step_two():
    out = _at_step(family_qkummer(), (1, 2, 1, -1), 2)
    assert out.a == A * Q
    assert out.b == B * Q**2
    assert out.c == B * Q**2 / A
    assert out.x == -1 / A


def test_shift_params_qbinom2_step_three():
    out = _at_step(family_qbinom2(), (0, 0, 0, 2), 3)
    assert out.a == A
    assert out.b == -A
    assert out.c == -Q
    assert out.x == X * Q**4


def test_param_values_with_fixed_root():
    fam = family_root_of_unity(3)
    vals = fam.param_values({"b": F(1, 5), "q": F(1, 2)})
    z = ExactScalar.zeta(3)
    assert vals["a"] == z * F(1, 2)
    assert vals["c"] == z * F(1, 5)
    assert vals["x"] == 1


def test_qgauss_assignment():
    fam = family_qgauss()
    assert fam.assignment["x"] == C / (A * B)


def test_family_values_must_be_monomials():
    # a value that is neither 0 nor a constant times a Laurent monomial
    # has no monomial map for compose to move
    for value in (1 - A, X / (1 + B), (A + B) / Q):
        with pytest.raises(ValueError, match="c = .*not a constant times a Laurent monomial"):
            ParamFamily("bad", ("a", "b", "x"), {"a": A, "b": B, "c": value, "x": X})
    # a value of another type used to end in AttributeError
    for value in (2, F(1, 2), MultiPoly.var("b")):
        with pytest.raises(ValueError, match="family assigns c a .*, not a RationalFunction"):
            ParamFamily("bad", ("a", "b", "x"), {"a": A, "b": B, "c": value, "x": X})
    ParamFamily("fine", ("a", "b", "x"), {"a": A, "b": B, "c": RF.const(0), "x": F(-2, 3) * X / (A * Q**2)})


def _by_arithmetic(p: MultiPoly, point: dict) -> RF:
    """p at RationalFunction values by products and powers, term by term."""
    return sum((c * math.prod((point[v] ** e for v, e in zip(p.vars, exps)), start=RF.const(1))
                for exps, c in p.terms.items()), RF.const(0))


def _moved(fam, shift, t, steps) -> dict:
    return {**vars(Phi21Params(q=t, **fam.assignment).shifted(shift, steps)), "q": Q}


COMPOSED = [((2, 2, 0, 2), family_qbinom2()), ((2, 4, 2, -2), family_qkummer()),
            ((0, 3, 3, 0), family_root_of_unity(3))]


@pytest.mark.parametrize("shift, fam", COMPOSED, ids=[f.name for _, f in COMPOSED])
def test_compose_is_the_family_map_by_rational_function_arithmetic(shift, fam):
    # moved values from exponent vectors, reduced modulo Phi_l(w), against
    # RationalFunction products and powers, reduced through division
    p = MultiPoly.from_text("a^2*b*q*x + (-3/2)*a*c^2 + (2)*b*q^3*x^2 + (1)")
    root = _root_binding(fam)
    for t in (RF.var("t"), Q):
        for steps in (0, 1, 2):
            got = fam.compose(p, shift, t, steps)
            want = _by_arithmetic(p, _moved(fam, shift, t, steps))
            assert isinstance(got, RF) and len(got.den.nums) == 1
            if root:
                phi = MultiPoly((root[0],), {(e,): c for e, c in enumerate(cyclotomic_poly(root[1]))})
                assert heap_divide((want - got).num, phi) is not None
                assert got.num.degree_in(root[0]) < len(cyclotomic_poly(root[1])) - 1
            else:
                assert got == want


def test_compose_takes_a_zero_value():
    # c = 0 enters eval as the int 0; the composed pair is the normalized
    # one of RationalFunction arithmetic, unique over a monomial
    fam = ParamFamily("(a, b, 0, x)", ("a", "b", "x"), {"a": A, "b": B, "c": RF.const(0), "x": X})
    polys = [MultiPoly.from_text("a^2*b*q*x + (-3/2)*a*c^2 + (2)*b*q^3*x^2 + (1)"),
             qr_lookup((0, 1, 1, 0)).Q.num, qr_lookup((1, 2, 1, -1)).R.num]
    for p in polys:
        for shift in ((1, 2, 1, -1), (0, 0, 0, 2), (-1, 0, 2, -2)):
            for steps in (0, 1, 3):
                got = fam.compose(p, shift, Q, steps)
                want = _by_arithmetic(p, _moved(fam, shift, Q, steps))
                assert (got.num.to_text(), got.den.to_text()) == (want.num.to_text(), want.den.to_text())


@pytest.mark.parametrize("fam", [family_qgauss(), family_root_of_unity(3)], ids=["rational", "root"])
def test_compose_takes_a_constant_polynomial(fam):
    # the zero shift's Q is 0 / 1; a constant's value is a Fraction, whose
    # numerator compose used to read as .num (AttributeError)
    for value in (0, F(3, 2)):
        assert fam.compose(MultiPoly.const(value), (0, 0, 0, 0), Q) == MultiPoly.const(value)


def test_mod_cyclotomic_is_the_remainder():
    # p - (p mod Phi_l) is a multiple of Phi_l, of degree below phi(l)
    rng = random.Random(4)
    for order in (1, 2, 3, 4, 5, 6, 8, 12):
        phi = MultiPoly(("w",), {(e,): c for e, c in enumerate(cyclotomic_poly(order))})
        for _ in range(10):
            p = MultiPoly(("b", "w"), {(rng.randint(0, 3), rng.randint(0, 30)): F(rng.randint(-5, 5), rng.randint(1, 3))
                                       for _ in range(rng.randint(1, 8))})
            r = p.mod_cyclotomic("w", order)
            assert heap_divide(p - r, phi) is not None
            assert r.degree_in("w") < len(cyclotomic_poly(order)) - 1
            assert r.is_zero() == (heap_divide(p, phi) is not None)
        assert (phi * p).mod_cyclotomic("w", order).is_zero()
