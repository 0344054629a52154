import inspect
import itertools
import json
import math
import random
import sys
from fractions import Fraction as F
from functools import cache

import pytest
from heap_division import heap_divide

from qforge import families, forge, qseries, relations
from qforge.closedform import closed_form_eval
from qforge.errors import (
    ConstraintViolated,
    DegenerateFamily,
    DegenerateParameter,
    SamplingExhausted,
    UnboundSymbol,
    UnreachableTolerance,
    UnsupportedBinding,
)
from qforge.exact import ExactScalar, cyclotomic_poly
from qforge.families import (
    ParamFamily,
    family_qbinom2,
    family_qgauss,
    family_qkummer,
    family_root_of_unity,
    solution_families,
)
from qforge.forge import (
    check_constraints,
    check_family,
    conjecture_check,
    default_registry,
    product_R,
    sv5_cauchy_check,
    telescoped_check,
    verify_identity,
)
from qforge.poly import MultiPoly, RationalFunction as RF
from qforge.qseries import Phi21Params, phi21_numeric, qpoch_finite, qpoch_infinite
from qforge.relations import (
    DEFAULT_SEED,
    ShiftVector,
    ThreeTermRelation,
    draw_admissible,
    qr_derive,
    qr_lookup,
    rand_fraction,
)

Q12 = F(1, 2)
Z3 = ExactScalar.zeta(3)
Z4 = ExactScalar.zeta(4)


def test_registry_loads_and_validates():
    reg = default_registry()
    assert set(reg) == {"qbinom", "qbinom2", "qgauss", "qkummer", "sv1", "sv2", "sv3", "sv4", "sv5"}
    assert all(reg[i].mode == "exact" for i in ("sv1", "sv2", "sv3", "sv4", "sv5"))


def test_verify_sv1_example():
    case = verify_identity("sv1", {"M": 0, "N": 1, "q": Q12})
    assert case.status == "pass" and case.lhs == "5/7" and case.rhs == "5/7"


def test_verify_sv4_examples():
    case = verify_identity("sv4", {"N": 0, "q": Q12, "w": Z3})
    assert case.status == "pass" and case.lhs == "1"
    case = verify_identity("sv4", {"N": 1, "q": Q12, "w": Z3})
    assert case.status == "pass" and case.lhs == "cyclo(3)[-1/7, -3/7]"


def test_verify_constraint_violations():
    with pytest.raises(ConstraintViolated):
        verify_identity("sv1", {"M": -1, "N": 0, "q": Q12})
    with pytest.raises(ConstraintViolated):
        verify_identity("sv4", {"N": 1, "q": Q12, "w": ExactScalar.from_rational(1)})
    with pytest.raises(ConstraintViolated):
        verify_identity("sv5", {"a": F(1), "N": 1, "q": Q12})
    # a = q lies on the singular locus of the phi-form for N >= 1
    with pytest.raises(ConstraintViolated):
        verify_identity("sv5", {"a": Q12, "N": 3, "q": Q12})
    with pytest.raises(ConstraintViolated):
        verify_identity("qbinom", {"a": F(1, 3), "x": F(3, 2), "q": Q12})


def test_abs_lt_constraint_checks_the_whole_ball():
    # x = 1 - 3 2**-115 is within half a unit of 1 - 2**-113 at 113 bits,
    # but its ball reaches |x| = 1, so |x| < 1 cannot be shown at that
    # precision: refused before any sum
    with pytest.raises(ConstraintViolated, match="\\|expr\\| < 1 not shown at 113 bits"):
        verify_identity("qbinom", {"a": F(1, 3), "x": 1 - F(3, 2**115), "q": Q12})
    # the whole ball lies beyond the bound: shown violated
    with pytest.raises(ConstraintViolated, match="\\|expr\\| < 1 violated"):
        verify_identity("qbinom", {"a": F(1, 3), "x": F(3, 2), "q": Q12})


def test_abs_lt_constraint_is_shown_at_the_callers_precision():
    # c/(ab) = 1 - 2**-150: |c/(ab)| < 1 holds, but its ball reaches 1 at
    # 113 bits and not at 200, so the check reads the precision it is given
    record = default_registry()["qgauss"]
    bindings = {"a": F(1, 2), "b": F(1, 2), "c": (1 - F(1, 2**150)) / 4, "q": F(1, 3)}
    assert check_constraints(record, bindings, prec=200) is None
    with pytest.raises(ConstraintViolated, match="\\|expr\\| < 1 not shown at 113 bits"):
        check_constraints(record, bindings, prec=113)
    # verify_identity checks at its own prec; the rhs, near 2**150, divides
    # by (c/(ab); q)_inf, about 2**-150, which its ratio keeps to a relative
    # error, so the point verifies at tol 1e-12
    case = verify_identity("qgauss", bindings, prec=200)
    assert case.status == "pass" and case.abs_err <= 1e-12


@pytest.mark.parametrize("tol", [0, -1e-12, math.nan, math.inf])
def test_bad_tol_is_refused_before_the_first_term(tol, monkeypatch):
    # no sum meets a tol of 0 or less, and nan and inf have no rounded
    # value: each entry point refuses before the kernel scales its first
    # ball, which both kernels do before any term
    monkeypatch.setattr(qseries, "_at", lambda *_: pytest.fail("a ball was scaled"))
    bindings = {"a": F(1, 3), "x": F(1, 2), "q": Q12}
    with pytest.raises(UnreachableTolerance, match="not a positive finite number"):
        phi21_numeric(Phi21Params(F(1, 3), F(1, 5), F(1, 7), Q12, F(1, 2)), tol)
    with pytest.raises(UnreachableTolerance, match="not a positive finite number"):
        qpoch_infinite(F(1, 2), Q12, tol)
    with pytest.raises(UnreachableTolerance, match="not a positive finite number"):
        closed_form_eval(default_registry()["qbinom"].rhs, bindings, "numeric", tol)
    with pytest.raises(UnreachableTolerance, match="not a positive finite number"):
        verify_identity("qbinom", bindings, tol=tol)


def test_verify_identity_sums_each_lhs_term_once(monkeypatch):
    # two rounds, of 39 and then 42 terms: the second continues the
    # first, so the kernel computes 42 terms and not 39 + 42
    # a loop over real balls calls no function per term, so terms are
    # counted as runs of the kernel loop's `i += 1` line
    terms, rounds = [], []
    code = qseries.phi21_numeric.__code__
    lines, first = inspect.getsourcelines(qseries.phi21_numeric)
    step = first + next(n for n, line in enumerate(lines) if line.lstrip().startswith("i += 1"))

    def counted(frame, event, arg):
        if event == "line" and frame.f_lineno == step:
            terms.append(1)
        return counted

    def round_(*args, _phi21=forge.phi21_numeric):
        series = _phi21(*args)
        rounds.append(series.terms_used)
        return series

    monkeypatch.setattr(forge, "phi21_numeric", round_)
    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: counted if frame.f_code is code else None)
    try:
        case = verify_identity("qbinom", {"a": F(1, 3), "x": F(17, 18), "q": Q12})
    finally:
        sys.settrace(before)
    assert case.status == "pass" and case.terms_used == 42
    assert rounds == [39, 42] and len(terms) == 42


def test_an_rhs_that_is_not_one_ratio_is_evaluated_by_its_tree(monkeypatch):
    # qbinom's rhs plus 0 does not split into one ratio: each round
    # evaluates the tree afresh, and both routes verify the point
    doc = forge.build_default_registry()
    record = next(r for r in doc["identities"] if r["id"] == "qbinom")
    record["rhs"] = {"kind": "add", "left": record["rhs"], "right": {"kind": "lit", "value": "0"}}
    registry = forge._parse_registry(doc)
    assert registry["qbinom"].ratio is None and default_registry()["qbinom"].ratio is not None
    bindings = {"a": F(1, 3), "x": F(17, 18), "q": Q12}
    trees = []  # the trees closed_form_eval evaluates in numeric mode
    monkeypatch.setattr(forge, "closed_form_eval", lambda tree, *args: (
        trees.append(tree) if args[1:2] == ("numeric",) else None) or closed_form_eval(tree, *args))
    by_tree = verify_identity("qbinom", bindings, registry=registry)
    assert trees.count(record["rhs"]) == 2  # two rounds, the tree afresh in each
    trees.clear()
    by_ratio = verify_identity("qbinom", bindings)
    assert all(tree["kind"] != "div" for tree in trees)  # the constraint |x| < 1, not the rhs
    assert by_tree.status == by_ratio.status == "pass"

def test_non_terminating_lhs_defined_rejects_unit_c_q_power():
    # c*q^j = 1 zeroes (c;q)_i for i > j and the rhs divisor (c;q)_inf
    with pytest.raises(ConstraintViolated, match="1 - c\\*q\\^1 vanishes"):
        verify_identity("qgauss", {"a": F(82, 23), "b": F(71, 75), "c": F(2), "q": Q12})
    with pytest.raises(ConstraintViolated, match="1 - c\\*q\\^0 vanishes"):
        verify_identity("qkummer", {"a": F(3, 2), "b": F(3), "q": Q12})


def test_verify_qkummer_numeric():
    case = verify_identity("qkummer", {"a": F(3), "b": F(1, 5), "q": Q12}, tol=1e-12)
    assert case.status == "pass" and case.abs_err <= 1e-12


def test_check_family_table_shifts():
    assert check_family((0, 2, 2, 0), family_qkummer(), n_max=4)
    assert check_family((0, 1, 1, 0), family_qgauss(), n_max=4)
    assert check_family((0, 0, 0, 2), family_qbinom2(), n_max=4)
    assert check_family((0, 3, 3, 0), family_root_of_unity(3), n_max=4)


def test_registry_completeness():
    # every tabulated shift has at least one family, and all of them pass
    from qforge.families import solution_families
    from qforge.relations import TABLE_SHIFTS

    for shift in TABLE_SHIFTS:
        fams = solution_families(shift)
        assert fams, shift
        for fam in fams:
            assert check_family(shift, fam, n_max=4), (shift, fam.name)


def test_check_family_rejects_generic():
    generic = ParamFamily("generic", ("a", "b", "c", "x"), {k: RF.var(k) for k in "abcx"})
    assert not check_family((0, 1, 1, 0), generic, n_max=1)


def test_check_family_derived_even_shift():
    rel = qr_derive((2, 2, 0, 2))
    assert check_family((2, 2, 0, 2), family_qbinom2(), n_max=4, relation=rel)


def test_product_r_closed_forms():
    a, b, c, q, x = (RF.var(s) for s in "abcqx")
    pr = product_R((0, 1, 1, 0), family_qgauss(), 4)
    assert pr == qpoch_finite(c, q, 4) / qpoch_finite(c / a, q, 4)
    pr = product_R((0, 0, 0, 2), family_qbinom2(), 4)
    assert pr == qpoch_finite(x, q * q, 4) / qpoch_finite(a * a * x, q * q, 4)
    assert product_R((0, 1, 1, 0), family_qgauss(), 0) == 1


def test_product_r_kummer_closed_form():
    # 1/(R^(1)...R^(N)) collapses to (-a;q)_N (bq;q^2)_N / (a^N q^(N(N-1)/2) (bq/a;q)_N)
    a, b, q = (RF.var(s) for s in "abq")
    n = 3
    pr = product_R((1, 2, 1, -1), family_qkummer(), n)
    expected = (a**n * q ** (n * (n - 1) // 2) * qpoch_finite(b * q / a, q, n)
                / (qpoch_finite(-a, q, n) * qpoch_finite(b * q, q * q, n)))
    assert pr == expected


def test_telescoped_numeric_q_gauss():
    run = telescoped_check((0, 1, 1, 0), family_qgauss(), 5,
                           {"a": F(1, 3), "b": F(1, 5), "c": F(1, 30), "q": Q12}, tol=1e-12)
    assert run.passed and len(run.steps) == 5


def test_telescoped_exact_kummer_terminating():
    run = telescoped_check((1, 2, 1, -1), family_qkummer(), 3,
                           {"a": Q12**2, "b": Q12**-6, "q": Q12}, mode="exact")
    assert run.passed
    # the telescoped value is N-independent
    assert len({s.telescoped for s in run.steps}) == 1


def test_telescoped_n_max_zero():
    # a run of no steps would pass without checking anything
    with pytest.raises(ValueError, match="n_max >= 1, not 0"):
        telescoped_check((0, 1, 1, 0), family_qgauss(), 0,
                         {"a": F(1, 3), "b": F(1, 5), "c": F(1, 30), "q": Q12})


@pytest.mark.parametrize("mode", ["Exact", "approx", ""])
def test_telescoped_check_refuses_an_unknown_mode(mode):
    # any mode but "exact" used to run numerically under the mode given
    with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
        telescoped_check((0, 1, 1, 0), family_qgauss(), 1,
                         {"a": F(1, 3), "b": F(1, 5), "c": F(1, 30), "q": Q12}, mode=mode)


@pytest.mark.parametrize("point", [{"a": F(1, 3), "b": F(1, 5), "c": F(1, 30)}, {"b": F(1, 5)}],
                         ids=["q-free-family", "q-in-the-family"])
def test_telescoped_check_names_an_unbound_q(point):
    # the same typed error as any other unbound symbol, whether or not the
    # family's assignment uses q
    shift, fam = ((0, 1, 1, 0), family_qgauss()) if "a" in point else ((0, 3, 3, 0), family_root_of_unity(3))
    with pytest.raises(UnboundSymbol, match=r"point does not bind \['q'\]"):
        telescoped_check(shift, fam, 1, point, mode="exact")


@pytest.mark.parametrize("n_max", [0, -1])
def test_check_family_needs_a_step(n_max):
    with pytest.raises(ValueError, match=f"^check_family needs n_max >= 1, not {n_max}$"):
        check_family((0, 1, 1, 0), family_qgauss(), n_max=n_max)


def test_pipeline_run_json():
    run = telescoped_check((0, 0, 0, 2), family_qbinom2(), 2,
                           {"a": F(1, 3), "x": F(1, 4), "q": Q12}, tol=1e-12)
    doc = run.to_json()
    assert doc["passed"] and len(doc["steps"]) == 2
    json.dumps(doc)  # serializable


def test_sv5_cauchy_examples():
    assert sv5_cauchy_check(F(2), 8)
    assert sv5_cauchy_check(Z3, 6)
    assert sv5_cauchy_check(Z4, 6)
    with pytest.raises(DegenerateParameter):
        sv5_cauchy_check(F(1), 4)


def test_sv5_cauchy_matches_sv4():
    # each zeta_3 instance agrees with the sv4 record
    for n in range(0, 6):
        case = verify_identity("sv4", {"N": n, "q": Q12, "w": Z3})
        assert case.status == "pass"
    assert sv5_cauchy_check(Z3, 6)


def test_conjecture_requires_matching_instance():
    with pytest.raises(ValueError):
        conjecture_check("lln_even", (1, 2, 3, 4))
    with pytest.raises(ValueError):
        conjecture_check("nonsense", (0, 0, 0, 2))


def test_conjecture_lln_even():
    rep = conjecture_check("lln_even", (2, 2, 0, 2))
    assert rep.passed and not rep.trivial
    assert {s.name for s in rep.steps} >= {"derive_relation", "family_check", "telescoping"}


@pytest.mark.parametrize("value, trivial", [
    (ExactScalar.from_rational(1), True),
    (ExactScalar.from_rational(F(3, 2)), False),
], ids=["value3-True", "value4-False"])
def test_conjecture_trivial_reads_telescoped_values(monkeypatch, value, trivial):
    # the flag is set when every telescoped value is exactly 1
    real = forge.telescoped_check

    def with_value(*args, **kwargs):
        run = real(*args, **kwargs)
        for step in run.steps:
            step.telescoped = value
        return run

    monkeypatch.setattr(forge, "telescoped_check", with_value)
    rep = conjecture_check("lln_even", (0, 0, 0, 2), n_max=1)
    assert rep.trivial is trivial


def test_conjecture_propagates_programming_errors(monkeypatch):
    # only engine failures become "error" steps; a bug surfaces
    def broken(*args, **kwargs):
        raise TypeError("broken")

    monkeypatch.setattr(forge, "check_family", broken)
    with pytest.raises(TypeError, match="broken"):
        conjecture_check("lln_even", (0, 0, 0, 2), n_max=1)


def test_conjecture_sum_zero():
    rep = conjecture_check("sum_zero", (1, 1, 2, 0))
    assert rep.passed
    assert [s.name for s in rep.steps] == ["derive_relation", "family_check", "telescoping"]


def test_conjecture_telescopes_exactly_on_every_instance_of_the_box():
    # every lln_even, sum_zero and kll instance of [-2,2]^4, n < 0 among
    # them, where no point makes |x q^(n i)| small: the terminating point
    # needs no convergence disk
    instances = [(pattern, shift) for shift in itertools.product(range(-2, 3), repeat=4)
                 for pattern in ("lln_even", "sum_zero", "kll") if families.PATTERNS[pattern][0](*shift)]
    assert len(instances) == 91 and sum(shift[3] < 0 for _, shift in instances) > 30
    for pattern, shift in instances:
        rep = conjecture_check(pattern, shift)
        steps = {s.name: s.status for s in rep.steps}
        assert rep.passed and steps["telescoping"] == "pass" and not rep.trivial, (pattern, shift, steps)


def test_terminating_point_moves_b_else_a():
    # b = q^-r with r = 3 max(l, 0) + 1; lln_even's b = -a moves a by k
    q = forge._WITNESS["q"]
    point, v, r = forge._terminating_point(family_qgauss(), ShiftVector(1, 2, 3, 0))
    assert (v, r) == ("b", 7)
    assert point == {"a": F(2, 7), "b": q**-7, "c": F(5, 13), "q": F(1, 3)}
    assert forge._terminating_point(family_qkummer(), ShiftVector(1, -2, -3, -1))[1:] == ("b", 1)
    assert forge._terminating_point(family_qbinom2(), ShiftVector(2, 2, 0, 2))[1:] == ("a", 7)


def test_family_check_carries_the_locus_claim(monkeypatch):
    # sum_zero's family is the locus x = c/(ab); the Q of (0,0,0,2) does
    # not vanish on it, and its N = 1 round is the claim that Q does
    table = qr_lookup((0, 0, 0, 2))
    assert not family_qgauss().compose(table.Q.num, (0, 0, 0, 0), RF.var("q"), 0).is_zero()
    rel = ThreeTermRelation(ShiftVector(1, 1, 2, 0), table.Q, table.R)
    assert not check_family((1, 1, 2, 0), family_qgauss(), n_max=1, relation=rel)
    monkeypatch.setattr(forge, "qr_derive", lambda shift: rel)
    rep = conjecture_check("sum_zero", (1, 1, 2, 0), n_max=1)
    assert [(s.name, s.status) for s in rep.steps[:2]] == [("derive_relation", "pass"), ("family_check", "fail")]
    assert not rep.passed


def _collapsing() -> ParamFamily:
    """c identically equal to a: every point lies on the a = c locus, where
    the denominator a - c of (0,1,1,0)'s Q vanishes."""
    a, b, x = (RF.var(s) for s in "abx")
    return ParamFamily("c=a", ("a", "b", "x"), {"a": a, "b": b, "c": a, "x": x})


def test_degenerate_family_paths():
    with pytest.raises(DegenerateFamily):
        product_R((0, 1, 1, 0), _collapsing(), 2)
    with pytest.raises(DegenerateFamily):
        check_family((0, 1, 1, 0), _collapsing(), n_max=1)


def test_product_r_names_the_step_whose_r_is_undefined():
    # (0,1,1,0)'s den(R) = a - c on c = a/q moved along c: a(1 - 1/q) at
    # i = 1, then a - a = 0 at i = 2
    a, b, q, x = (RF.var(s) for s in "abqx")
    fam = ParamFamily("(a, b, a/q, x)", ("a", "b", "x"), {"a": a, "b": b, "c": a / q, "x": x})
    rel = qr_lookup((0, 1, 1, 0))
    assert product_R((0, 1, 1, 0), fam, 1) == rel.R.eval({"a": a, "b": b, "c": a / q, "q": q, "x": x})
    with pytest.raises(DegenerateFamily, match=r"^R\^\(2\) undefined for family \(a, b, a/q, x\)$"):
        product_R((0, 1, 1, 0), fam, 2)


def _no_draw(*args):
    raise AssertionError("check_family drew a point")


def test_check_family_proves_a_degenerate_family_without_a_draw(monkeypatch):
    monkeypatch.setattr(relations, "rand_fraction", _no_draw)
    monkeypatch.setattr(relations, "draw_admissible", _no_draw)
    with pytest.raises(DegenerateFamily, match=r"^Q\^\(1\) is undefined on family c=a$"):
        check_family((0, 1, 1, 0), _collapsing(), n_max=2)


@pytest.mark.parametrize("moved, composed_dens", [({"c": F(2, 7)}, 1), ({"a": F(0)}, 2)],
                         ids=["zero-of-den", "pole-of-family"])
def test_a_zero_at_the_witness_falls_back_to_the_composition(monkeypatch, moved, composed_dens):
    # c = a = 2/7 is a zero of (0,1,1,0)'s den(Q) = a - c at N = 1, and a = 0
    # a pole of x = c/(ab) at every N; Q^(N) is defined on the family all the same
    composed, real = [], ParamFamily.compose
    monkeypatch.setattr(forge, "_WITNESS", {**forge._WITNESS, **moved})
    monkeypatch.setattr(ParamFamily, "compose",
                        lambda fam, poly, *args: composed.append(poly) or real(fam, poly, *args))
    rel = derived((0, 1, 1, 0))
    assert check_family((0, 1, 1, 0), family_qgauss(), n_max=2, relation=rel)
    assert composed.count(rel.Q.den) == composed_dens


# -- the composed family check against the pointwise one it replaced ------------------


def _family_point(fam: ParamFamily, rng: random.Random) -> dict:
    """Random bindings of the family's sampled symbols, then of q."""
    point = {s: rand_fraction(rng) for s in fam.free_symbols if s not in fam.fixed_bindings}
    point["q"] = rand_fraction(rng)
    return point


def pointwise_check_family(shift, fam, n_max=4, trials=20, seed=DEFAULT_SEED, relation=None):
    """check_family before Q was composed with the family map: Q at the
    family's parameters, moved N - 1 steps, at each sampled point."""
    rel = relation or forge._relation_for(ShiftVector(*shift), None)
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        def draw():
            p = forge._family_params(fam, _family_point(fam, rng)).shifted(shift, n - 1)
            return rel.Q.eval(vars(p))

        if any(v != 0 for v in draw_admissible(draw, trials, 10 * trials, f"family points at N={n}")):
            return False
    return True


@cache
def derived(shift) -> ThreeTermRelation:
    return qr_derive(shift)


def assert_routes_agree(shift, fam, trials=20, seed=DEFAULT_SEED, **kwargs):
    """Both routes give the same boolean, the pointwise route sampling
    `trials` points per N from `seed`; its SamplingExhausted on a family
    where Q^(N) is undefined counts as check_family's DegenerateFamily.
    Returns the outcome."""
    outcomes = []
    for route, sampling in ((check_family, {}), (pointwise_check_family, {"trials": trials, "seed": seed})):
        try:
            outcomes.append(route(shift, fam, **kwargs, **sampling))
        except (DegenerateFamily, SamplingExhausted):
            outcomes.append(DegenerateFamily)
    exact, pointwise = outcomes
    assert exact == pointwise, (shift, fam.name)
    return exact


CRITERION_8 = [((2, 2, 0, 2), family_qbinom2()), ((1, 1, 2, 0), family_qgauss()),
               ((2, 4, 2, -2), family_qkummer()), ((0, 4, 4, 0), family_root_of_unity(4))]


@pytest.mark.parametrize("shift, fam", CRITERION_8, ids=[str(s) for s, _ in CRITERION_8])
def test_composed_check_matches_pointwise_on_criterion_8(shift, fam):
    assert assert_routes_agree(shift, fam, n_max=4, relation=derived(shift))


@pytest.mark.parametrize("shift", [s for s, _ in CRITERION_8], ids=[str(s) for s, _ in CRITERION_8])
def test_composed_check_matches_pointwise_on_the_families_workload(shift):
    # every family of the shift, 5 points per N, at several seeds
    for fam in solution_families(shift):
        for seed in (3, 1234, 2**31 - 1):
            assert_routes_agree(shift, fam, n_max=4, trials=5, seed=seed,
                                relation=derived(shift))


def test_composed_check_matches_pointwise_where_q_does_not_vanish():
    # the negative control: Kummer's family is not one of (0,3,3,0)
    assert not assert_routes_agree((0, 3, 3, 0), family_qkummer(), n_max=4)
    # a table Q that does not vanish on sum_zero's locus x = c/(ab)
    table = qr_lookup((0, 0, 0, 2))
    rel = ThreeTermRelation(ShiftVector(1, 1, 2, 0), table.Q, table.R)
    assert not assert_routes_agree((1, 1, 2, 0), family_qgauss(), trials=3, n_max=1, relation=rel)
    # Q^(1) of (0,0,1,0) vanishes on x = c/(ab) and Q^(2) does not: the
    # two pin the step t = q^(N-1)
    assert assert_routes_agree((0, 0, 1, 0), family_qgauss(), trials=3, n_max=1)
    assert not assert_routes_agree((0, 0, 1, 0), family_qgauss(), trials=3, n_max=2)
    # a family on which Q's den vanishes
    assert assert_routes_agree((0, 1, 1, 0), _collapsing(), trials=5, n_max=1) is DegenerateFamily


@pytest.mark.parametrize("trials", [1, 20])
def test_vanishing_family_draws_one_point_per_n(monkeypatch, trials):
    # den(Q) is evaluated once per N, at the fixed witness point: no draw,
    # and trials sets no count
    monkeypatch.setattr(relations, "rand_fraction", _no_draw)
    monkeypatch.setattr(relations, "draw_admissible", _no_draw)
    shift, fam = CRITERION_8[3]
    rel = derived(shift)
    evaluated, real = [], MultiPoly.eval
    monkeypatch.setattr(MultiPoly, "eval",
                        lambda self, *a, **k: (self is rel.Q.den and evaluated.append(a)) or real(self, *a, **k))
    assert check_family(shift, fam, n_max=4, trials=trials, relation=rel)
    assert len(evaluated) == 4


@pytest.mark.parametrize("order", [3, 4])
def test_root_of_unity_composite_vanishes_only_modulo_phi(monkeypatch, order):
    # Q's numerator on (zeta_l q, b, zeta_l b, 1) is not zero over Q, only
    # modulo Phi_l(w): a check that skipped the reduction would answer False
    shift, fam = ShiftVector(0, order, order, 0), family_root_of_unity(order)
    rel = derived(shift)
    moved = Phi21Params(q=RF.var("t"), **fam.assignment).shifted(shift)
    composite = rel.Q.num.eval({**vars(moved), "q": RF.var("q")}).num
    phi = MultiPoly(("w",), {(e,): c for e, c in enumerate(cyclotomic_poly(order))})
    assert families._root_binding(fam) == ("w", order)
    assert not composite.is_zero() and heap_divide(composite, phi) is not None
    # the reduction is the remainder modulo Phi_l(w), 0 exactly when phi divides
    assert composite.mod_cyclotomic("w", order).is_zero()
    assert fam.compose(rel.Q.num, shift, RF.var("t")).is_zero()
    monkeypatch.setattr(families, "_root_binding", lambda fam: None)
    assert not check_family(shift, fam, n_max=1, relation=rel)


def _fixing(**fixed) -> ParamFamily:
    """(0,3,3,0)'s root-of-unity family with w fixed to the given values."""
    b, q, w = RF.var("b"), RF.var("q"), RF.var("w")
    return ParamFamily("(w q, b, w b, 1)", ("b", "w"), {"a": w * q, "b": b, "c": w * b, "x": RF.const(1)},
                       fixed)


@pytest.mark.parametrize("fixed", [{"w": F(2, 3)}, {"w": 2 / 3}, {"w": F(2, 3) * Z3}, {"w": Z3, "v": Z4}],
                         ids=["two_thirds", "float", "not_unit", "two_roots"])
def test_check_family_refuses_bindings_it_cannot_reduce(fixed):
    # Phi_l is the minimal polynomial of a primitive l-th root only
    with pytest.raises(UnsupportedBinding):
        check_family((0, 3, 3, 0), _fixing(**fixed), n_max=1)


def test_root_binding_reduces_by_its_own_order():
    # -1, -zeta_3 and zeta_3^2 are primitive roots of order 2, 6 and 3
    cases = [(F(-1), {(0,): 1, (1,): 1}), (-Z3, {(0,): 1, (1,): -1, (2,): 1}),
             (Z3**2, {(0,): 1, (1,): 1, (2,): 1})]
    for value, phi in cases:
        sym, order = families._root_binding(_fixing(w=value))
        assert MultiPoly((sym,), {(e,): c for e, c in enumerate(cyclotomic_poly(order))}) == \
            MultiPoly(("w",), phi)
    # zeta_3^2 is conjugate to zeta_3, and zeta_4 is not a root of (0,3,3,0)'s family
    assert assert_routes_agree((0, 3, 3, 0), _fixing(w=Z3**2), trials=3, n_max=3)
    assert not assert_routes_agree((0, 3, 3, 0), _fixing(w=Z4), trials=3, n_max=3)


def test_composed_check_multiplies_no_polynomial_per_term(monkeypatch):
    # the composition is one packed sum per coefficient of Q, not a
    # MultiPoly product per term, and the witness multiplies no polynomial
    from qforge.poly import MultiPoly

    shift, fam = CRITERION_8[3]
    rel = derived(shift)
    calls, real = [], MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    counts = []
    for n_max in (1, 4):
        calls.clear()
        assert check_family(shift, fam, n_max=n_max, relation=rel)
        counts.append(len(calls))
    assert counts[0] == counts[1] < len(rel.Q.num.nums) // 10


def test_eval_rational_function_examples():
    assert RF.const(1).eval({}) == 1
    rel = qr_lookup((0, 1, 1, 0))
    pt = {"a": F(2), "b": F(3), "c": F(5), "x": F(7), "q": F(11)}
    assert rel.Q.eval(pt) == F(37, 3)


def test_verify_unreachable_tolerance_is_a_typed_error():
    # 1e-60 is far below the 2**-111 rounding of 113-bit values near 1
    with pytest.raises(UnreachableTolerance, match=r"tol 1e-60 .* 113-bit"):
        verify_identity("qbinom", {"a": F(62, 81), "x": F(1, 51), "q": Q12}, tol=1e-60, prec=113)


def test_sv5_verify_sums_its_lhs_once(monkeypatch):
    # the lhs_defined probe's exact sum is the lhs the exact branch compares
    calls = []
    real = forge.phi21_exact

    def counted(p, *args, **kwargs):
        calls.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(forge, "phi21_exact", counted)
    case = verify_identity("sv5", {"a": Z4, "N": 6, "q": Q12})
    assert len(calls) == 1
    value = "cyclo(4)[-2859180282/14030278925, -2078251749/14030278925]"
    assert case.to_json() == {
        "identity": "sv5", "bindings": {"a": "cyclo(4)[0, 1]", "N": "6", "q": "1/2"},
        "mode": "exact", "status": "pass", "lhs": value, "rhs": value,
        "abs_err": 0.0, "terms_used": 7, "detail": None,
    }
