import json
from fractions import Fraction as F

import mpmath
import pytest

import qforge.closedform as cf
from qforge.errors import InvalidDomain, ZeroDenominator
from qforge.exact import ExactScalar


def test_empty_product_is_one():
    tree = cf.qpoch(cf.sym("a"), 1, 0)
    assert cf.closed_form_eval(tree, {"a": F(1, 3), "q": F(1, 2)}, "exact") == 1


def test_sv1_rhs_value():
    # (-q^(M+2);q)_N (q;q^2)_N / (q^(M+N+2);q)_N at M=0, N=1, q=1/2 -> 5/7
    M, N = cf.sym("M"), cf.sym("N")
    tree = cf.div(
        cf.mul(cf.qpoch(cf.neg(cf.qpow(cf.add(M, 2))), 1, N), cf.qpoch(cf.qpow(1), 2, N)),
        cf.qpoch(cf.qpow(cf.add(cf.add(M, N), 2)), 1, N),
    )
    v = cf.closed_form_eval(tree, {"M": 0, "N": 1, "q": F(1, 2)}, "exact")
    assert v == F(5, 7)


def test_sv4_rhs_value():
    # (1-w^(N+1))/(1-w) * (q^-N;q)_N / (w q^-N;q)_N at N=1, q=1/2, w=zeta3
    N, w = cf.sym("N"), cf.sym("w")
    tree = cf.mul(
        cf.div(cf.sub(1, cf.pow_(w, cf.add(N, 1))), cf.sub(1, w)),
        cf.div(cf.qpoch(cf.qpow(cf.neg(N)), 1, N), cf.qpoch(cf.mul(w, cf.qpow(cf.neg(N))), 1, N)),
    )
    z = ExactScalar.zeta(3)
    v = cf.closed_form_eval(tree, {"N": 1, "w": z, "q": F(1, 2)}, "exact")
    assert v == ExactScalar(3, [F(-1, 7), F(-3, 7)])


def test_qpow_polynomial_exponent():
    # q^(N(N+1)/2) at N=4, q=1/2 -> 2^-10
    tree = cf.qpow(cf.div(cf.mul("N", cf.add("N", 1)), 2))
    assert cf.closed_form_eval(tree, {"N": 4, "q": F(1, 2)}, "exact") == F(1, 1024)


def test_non_integer_exponent_rejected():
    tree = cf.qpow(cf.div("N", 2))
    with pytest.raises(InvalidDomain):
        cf.closed_form_eval(tree, {"N": 3, "q": F(1, 2)}, "exact")


def test_infinite_factor_exact_mode_rejected():
    tree = cf.qpoch(cf.sym("a"), 1, "inf")
    with pytest.raises(InvalidDomain):
        cf.closed_form_eval(tree, {"a": F(1, 3), "q": F(1, 2)}, "exact")


def test_infinite_factor_numeric():
    tree = cf.div(cf.qpoch(cf.mul("a", "x"), 1, "inf"), cf.qpoch(cf.sym("x"), 1, "inf"))
    v = cf.closed_form_eval(tree, {"a": F(1, 3), "x": F(1, 2), "q": F(1, 2)}, "numeric", 1e-13)
    with mpmath.workprec(300):
        ref = mpmath.qp(mpmath.mpf(1) / 6, mpmath.mpf(1) / 2) / mpmath.qp(mpmath.mpf(1) / 2, mpmath.mpf(1) / 2)
        assert abs(v.val - ref) <= v.err


def test_zero_denominator():
    tree = cf.div(cf.lit(1), cf.sub("a", 1))
    with pytest.raises(ZeroDenominator):
        cf.closed_form_eval(tree, {"a": F(1), "q": F(1, 2)}, "exact")


def test_validate_and_json_round_trip():
    M, N = cf.sym("M"), cf.sym("N")
    tree = cf.div(
        cf.mul(cf.qpoch(cf.neg(cf.qpow(1)), 1, N), cf.qpoch(cf.qpow(cf.add(M, 3)), 2, N)),
        cf.mul(cf.qpow(cf.div(cf.mul(N, cf.add(N, 1)), 2)), cf.qpoch(cf.qpow(cf.add(M, 2)), 1, N)),
    )
    cf.validate(tree)
    round_tripped = json.loads(json.dumps(tree))
    assert round_tripped == tree
    assert cf.free_symbols(tree) == {"M", "N"}
    v1 = cf.closed_form_eval(tree, {"M": 2, "N": 3, "q": F(1, 2)}, "exact")
    v2 = cf.closed_form_eval(round_tripped, {"M": 2, "N": 3, "q": F(1, 2)}, "exact")
    assert v1 == v2


def test_validate_rejects_bad_nodes():
    with pytest.raises(ValueError):
        cf.validate({"kind": "frobnicate"})
    with pytest.raises(ValueError):
        cf.validate({"kind": "qpoch", "base": cf.sym("a"), "step": 0, "len": "inf"})


def test_unbound_symbol():
    with pytest.raises(KeyError):
        cf.closed_form_eval(cf.sym("z"), {"q": F(1, 2)}, "exact")


def test_split_ratio_finds_the_prefactor_and_the_factors():
    a, x = cf.sym("a"), cf.sym("x")
    ax, xq = cf.qpoch(cf.mul(a, x), 1, "inf"), cf.qpoch(x, 2, "inf")
    # (1 - a) (ax; q)_inf / (a^2 (x; q^2)_inf)
    tree = cf.div(cf.mul(cf.sub(1, a), ax), cf.mul(cf.pow_(a, 2), xq))
    pre, factors = cf.split_ratio(tree)
    assert factors == ((cf.mul(a, x), 1, 1), (x, 2, -1))
    assert pre == cf.div(cf.sub(1, a), cf.pow_(a, 2))
    # no prefactor, and a tree with no infinite product at all
    assert cf.split_ratio(cf.div(ax, xq)) == (None, ((cf.mul(a, x), 1, 1), (x, 2, -1)))
    assert cf.split_ratio(cf.sub(1, a)) == (cf.sub(1, a), ())
    # an infinite product under add, pow or a base is not one ratio
    for tree in (cf.add(ax, 1), cf.pow_(ax, 2), cf.qpoch(ax, 1, "inf"), cf.div(1, cf.qpoch(ax, 1, 3))):
        assert cf.split_ratio(tree) is None


def test_ratio_eval_against_closed_form_eval():
    # the split tree, its factors at q and q^2 moved to q^2 and its
    # prefactor 6 scaling the ratio's tol, holds the value closed_form_eval
    # and mpmath give; every ball within tol
    a, x = cf.sym("a"), cf.sym("x")
    tree = cf.div(cf.mul(cf.sub(1, a), cf.qpoch(cf.mul(a, x), 1, "inf")),
                  cf.mul(cf.pow_(a, 2), cf.qpoch(x, 2, "inf")))
    bindings = {"a": F(-1, 2), "x": F(2, 3), "q": F(3, 5)}
    got = cf.ratio_eval(cf.split_ratio(tree), bindings, 1e-20, 128)
    assert got.terms_used % 3 == 0 and got.value.prec == 128  # (-x/3; q^2), (-x q/3; q^2), (x; q^2)
    oracle = cf.closed_form_eval(tree, bindings, "numeric", 1e-20, 128)
    with mpmath.workprec(300):
        q = mpmath.mpf(3) / 5
        ref = 6 * mpmath.qp(-mpmath.mpf(1) / 3, q) / mpmath.qp(mpmath.mpf(2) / 3, q**2)
        assert abs(got.value.val - ref) <= got.value.err <= 1e-20
        assert abs(oracle.val - ref) <= oracle.err
