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
