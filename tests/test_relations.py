import inspect
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from functools import cache, reduce
from pathlib import Path

import pytest

import qforge
from qforge import forge, relations
from qforge.errors import (
    BudgetExceeded,
    NotInTable,
    SamplingExhausted,
    VerificationFailed,
    ZeroDenominator,
)
from qforge.exact import ExactScalar
from qforge.families import family_qgauss
from qforge.poly import RELATION_VARS, MultiPoly, RationalFunction as RF
from qforge.qseries import Phi21Params, _cleared_terms, phi21_exact, qpoch_finite
from qforge.relations import (
    TABLE_SHIFTS,
    ShiftVector,
    ThreeTermRelation,
    contiguous_step,
    draw_admissible,
    qr_derive,
    qr_lookup,
    rand_fraction,
    relation_residual,
    sample_relation_point,
    verify_relation,
)

A, B, C, Q, X = (RF.var(s) for s in "abcqx")


def test_lookup_printed_forms():
    rel = qr_lookup((0, 1, 1, 0))
    assert rel.Q == -(1 - A) * (C - A * B * X) / (A - C)
    assert rel.R == A * (1 - C) / (A - C)
    rel = qr_lookup((1, 2, 1, -1))
    assert rel.R == (1 - C) * Q / ((1 - B * Q) * (Q - X))
    rel = qr_lookup((0, 0, 0, 2))
    assert rel.R == (C + (1 - A - B) * X * Q) / (C - A * B * X * Q)


def test_lookup_point_values():
    rel = qr_lookup((0, 1, 1, 0))
    pt = {"a": F(2), "b": F(3), "c": F(5), "x": F(7), "q": F(11)}
    assert rel.Q.eval(pt) == F(37, 3)
    assert rel.R.eval(pt) == F(8, 3)


def test_lookup_unknown_shift():
    with pytest.raises(NotInTable):
        qr_lookup((5, 5, 5, 5))


def test_derive_identity_shift():
    rel = qr_derive((0, 0, 0, 0))
    assert rel.Q.is_zero() and rel.R == 1


def test_derive_x_step():
    rel = qr_derive((0, 0, 0, 1))
    assert rel.Q == -X * (1 - A) * (1 - B) / (1 - C)
    assert rel.R == 1


@pytest.mark.parametrize("shift", TABLE_SHIFTS)
def test_derive_matches_table(shift):
    der = qr_derive(shift)
    look = qr_lookup(shift)
    assert der.Q == look.Q
    assert der.R == look.R


def test_residual_invariant_tight():
    # type invariant: residual < 1e-20 in 128-bit floats at random points
    rng = random.Random(2)
    for shift in TABLE_SHIFTS:
        rel = qr_lookup(shift)
        point = sample_relation_point(rng, rel.shift)
        res = relation_residual(rel, point, 1e-22, prec=128)
        assert res < 1e-20


def test_residual_example_and_perturbation_control():
    rel = qr_lookup((0, 1, 1, 0))
    point = {"a": F(1, 3), "b": F(1, 5), "c": F(1, 7), "x": F(1, 4), "q": F(1, 2)}
    assert relation_residual(rel, point, 1e-13) < 1e-12
    bad = ThreeTermRelation(rel.shift, rel.Q + 1, rel.R)
    assert relation_residual(bad, point, 1e-13) > 0.1
    rel2 = qr_lookup((0, 0, 0, 2))
    assert relation_residual(rel2, point, 1e-13) < 1e-12


def test_residual_counts_q_times_series_error():
    # |Q| = 2.1e6 here, so summing each series at tol / 10 left the
    # residual of an exact relation at about 1e-9, a thousand times tol
    rel = qr_lookup((0, 1, 1, 0))
    point = {"a": F(1, 3) + F(1, 10**7), "b": F(1, 5), "c": F(1, 3), "q": F(1, 2), "x": F(1, 4)}
    assert abs(rel.Q.eval(point)) > 2 * 10**6
    assert relation_residual(rel, point, 1e-12) < 1e-12
    bad = ThreeTermRelation(rel.shift, rel.Q, rel.R * (1 + F(1, 10**9)))
    assert relation_residual(bad, point, 1e-12) > 1e-12


def test_verify_relation_runs():
    verify_relation(qr_lookup((0, 2, 2, 0)), n_points=20, tol=1e-10)


def test_verify_relation_exhausted_sampling_is_typed(monkeypatch):
    # no admissible point says nothing about the relation: not VerificationFailed
    def degenerate(rng, shift):
        raise ZeroDenominator("sampled point lies on the locus c = abx")

    monkeypatch.setattr(relations, "sample_relation_point", degenerate)
    with pytest.raises(SamplingExhausted, match="residual points"):
        verify_relation(qr_lookup((0, 2, 2, 0)), n_points=2)


def test_verify_relation_budget_is_50_per_point(monkeypatch):
    drawn = []

    def degenerate(rng, shift):
        drawn.append(shift)
        raise ZeroDenominator("sampled point lies on the locus c = abx")

    monkeypatch.setattr(relations, "sample_relation_point", degenerate)
    with pytest.raises(SamplingExhausted, match="admissible residual points"):
        verify_relation(qr_lookup((0, 2, 2, 0)), n_points=3)
    assert len(drawn) == 50 * 3


def test_draw_admissible_yields_count_results_and_skips():
    script = iter([1, None, 2, "zero", 3, 4, 5])

    def draw():
        value = next(script)
        if value == "zero":
            raise ZeroDenominator("degenerate")
        return value

    assert list(draw_admissible(draw, 3, 10, "points")) == [1, 2, 3]
    assert next(script) == 4  # nothing drawn after the third result
    assert list(draw_admissible(draw, 0, 10, "points")) == []  # draws nothing
    assert next(script) == 5


def test_draw_admissible_raises_once_the_budget_is_spent():
    drawn = []

    def draw():
        drawn.append(len(drawn))
        return None if len(drawn) % 2 else len(drawn)

    # 7 draws give 3 results, the fourth would need an eighth draw
    with pytest.raises(SamplingExhausted, match="^could not sample admissible test points$"):
        list(draw_admissible(draw, 4, 7, "test points"))
    assert len(drawn) == 7
    drawn.clear()
    assert list(draw_admissible(draw, 3, 6, "test points")) == [2, 4, 6]
    # an error other than a zero division is not a degenerate point
    with pytest.raises(KeyError):
        list(draw_admissible(lambda: {}["x"], 1, 5, "test points"))


def test_sampling_exhausted_is_raised_only_by_the_sampler():
    # one bounded sampling loop: a new hand-written loop raising
    # SamplingExhausted fails here
    src = Path(qforge.__file__).resolve().parent
    sites = {f.name: f.read_text().count("raise SamplingExhausted") for f in src.glob("*.py")}
    assert {name: n for name, n in sites.items() if n} == {"relations.py": 1}
    assert "raise SamplingExhausted" in inspect.getsource(draw_admissible)


def test_derived_relation_residuals():
    rel = qr_derive((1, 1, 2, 0))
    verify_relation(rel, n_points=20, tol=1e-10)


def test_failed_series_check_is_final(monkeypatch):
    # the series check is exact: one failure disproves the relation, so
    # qr_derive raises without checking again
    calls = []

    def series_verify(shift, cleared, order):
        calls.append(order)
        return len(calls) > 1

    monkeypatch.setattr(relations, "_series_verify", series_verify)
    with pytest.raises(VerificationFailed):
        qr_derive((0, 0, 0, 1))
    assert len(calls) == 1


def _series_check_args(shift):
    """(shift, cleared, order) that qr_derive passes to the series check."""
    seen = []
    real = relations._series_verify

    def capture(shift, cleared, order):
        seen.append((shift, cleared, order))
        return real(shift, cleared, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relations, "_series_verify", capture)
        qr_derive(shift)
    return seen[0]


@pytest.mark.parametrize("power", [2, "last"])
def test_series_check_rejects_a_wrong_relation(power):
    # the real check: true for the derived (P0, P1, P2), false once P2 gets
    # one tiny term, whether it moves the coefficient of x^2 or only the
    # last one checked
    shift, (p0, p1, p2), order = _series_check_args((0, 2, 2, 0))
    tiny = MultiPoly.var("a") * MultiPoly.var("x") ** (order - 1 if power == "last" else power) * F(1, 10**12)
    for cleared, ok in (((p0, p1, p2), True), ((p0, p1, p2 + tiny), False)):
        assert relations._series_verify(shift, cleared, order) is ok


def _primes(v: F) -> set:
    """The primes dividing v's numerator or denominator."""
    n, out, p = abs(v.numerator) * v.denominator, set(), 2
    while n > 1:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out


def test_witness_points_meet_the_side_conditions():
    # a prime of v in {a, b, c} that q lacks rules out v q^s = 1 at every
    # integer s, so the series check meets its side conditions at every
    # shift and degree, and no term's denominator vanishes
    assert relations.WITNESS_POINTS[0] == (F(2, 7), F(3, 11), F(5, 13), F(1, 3))
    assert {s: forge._WITNESS[s] for s in "abcq"} == dict(zip("abcq", relations.WITNESS_POINTS[0]))
    args = [_series_check_args(ShiftVector.parse(key)) for key in sorted(DERIVE_REFS["shifts"])]
    for a, b, c, q in relations.WITNESS_POINTS:
        assert q not in (0, 1, -1)
        assert all(_primes(v) - _primes(q) for v in (a, b, c)), (a, b, c, q)
        assert max(v.denominator for v in (a, b, c, q)) <= relations._MAX_DEN  # as small as a draw
        pt = Phi21Params(a, b, c, q, F(1))
        for shift, _, order in args:
            for moved in (pt.shifted(shift), pt.shifted((1, 1, 1, 0)), pt):
                nums, den = _cleared_terms(moved, order)
                assert len(nums) == order and den


# -- the degree bound of the series check ------------------------------------------
#
# The oracle builds each ratio T_(j-i) / t_j of _series_verify's argument
# as a rational function of z = q^j, checks it against the terms
# themselves, and lets sympy cancel each one and take the lcm L of their
# denominators: D is the largest degree of a summand times L.

# the cleared x-degree d of each shift's relation (qr_derive's d)
_CLEARED_DEGREE = {
    (0, 1, 1, 0): 1, (1, 2, 1, -1): 1, (0, 3, 3, 0): 3, (0, 4, 4, 0): 4, (2, 4, 2, -2): 4,
    (0, 6, 6, 0): 6, (3, 3, 0, 3): 8, (4, 8, 6, -4): 10, (4, 4, 0, 4): 11, (2, 2, 0, 2): 5,
    (1, 1, 2, 0): 1, (5, 5, 0, 5): 14,
}


def _ratio_parts(shift, i, a, b, c, q, z):
    """(num, den) of (az; q)_(k-i) (bz; q)_(l-i) (z/q^(i-1); q)_i z^n / (cz; q)_(m-i),
    T_(j-i) / t_j over a constant of the point, with (v; q)_N = 1 / (vq^N; q)_-N
    at N < 0."""
    k, l, m, n = shift

    def poch(v, count):
        if count >= 0:
            return qpoch_finite(v, q, count), 1
        return 1, qpoch_finite(v * q**count, q, -count)

    parts = [poch(a * z, k - i), poch(b * z, l - i), poch(z / q**(i - 1), i),
             poch(c * z, m - i)[::-1], (z**n, 1) if n >= 0 else (1, z**-n)]
    return math.prod(p for p, _ in parts), math.prod(p for _, p in parts)


def _term(shift, a, b, c, q, j):
    """The j-th term of phi(aq^k, bq^l; cq^m; q, q^n), 0 at j < 0."""
    k, l, m, n = shift
    if j < 0:
        return 0
    return (qpoch_finite(a * q**k, q, j) * qpoch_finite(b * q**l, q, j) * q**(n * j)
            / (qpoch_finite(q, q, j) * qpoch_finite(c * q**m, q, j)))


@cache
def _sympy_degree(shift, d):
    import sympy

    rng = random.Random(sum(shift) + 7 * d)
    a, b, c, q = (rand_fraction(rng) for _ in range(4))
    z = sympy.Symbol("z")
    sym = [sympy.Rational(v.numerator, v.denominator) for v in (a, b, c, q)]
    fracs = []
    for series in (shift, (1, 1, 1, 0), (0, 0, 0, 0)):
        for i in range(d + 1):
            ratios = set()
            for j in range(i + 4):
                num, den = _ratio_parts(series, i, a, b, c, q, q**j)
                term = _term(series, a, b, c, q, j - i)
                if j < i:
                    assert num == 0 and term == 0
                else:
                    ratios.add(num * _term((0, 0, 0, 0), a, b, c, q, j) / (den * term))
            assert len(ratios) == 1  # the formula is T_(j-i) / t_j up to one constant
            num, den = _ratio_parts(series, i, *sym, z)
            fracs.append(sympy.Poly(num, z).cancel(sympy.Poly(den, z), include=True))
    lcm = reduce(lambda u, v: u.lcm(v), (den for _, den in fracs))
    return max(num.degree() + lcm.degree() - den.degree() for num, den in fracs)


@pytest.mark.parametrize("shift", sorted(_CLEARED_DEGREE), ids=lambda s: ",".join(map(str, s)))
def test_series_degree_bound_covers_the_sympy_degree(shift):
    assert relations._gamma_degree(shift, _CLEARED_DEGREE[shift]) >= _sympy_degree(shift, _CLEARED_DEGREE[shift])


@pytest.mark.parametrize("shift", [(0, 1, 1, 0), (1, 2, 1, -1), (2, 2, 0, 2), (1, 1, 2, 0)])
def test_series_order_is_one_past_the_degree(shift):
    # D + 1 coefficients prove the identity at a point, D do not: the
    # order qr_derive passes must exceed the degree sympy finds
    _, cleared, order = _series_check_args(shift)
    d = max(pp.degree_in("x") for pp in cleared)
    assert d == _CLEARED_DEGREE[shift]
    assert order >= _sympy_degree(shift, d) + 1


def test_qr_derive_never_runs_the_residual(monkeypatch):
    def residual(*args, **kwargs):
        raise AssertionError("qr_derive ran the numeric residual")

    monkeypatch.setattr(relations, "relation_residual", residual)
    for shift in ((0, 2, 2, 0), (2, 2, 0, 2), (-1, -2, -2, 1)):
        qr_derive(shift)


def test_qr_derive_draws_nothing(monkeypatch):
    # the series check reads WITNESS_POINTS: no sampler runs in a derivation
    def sampler(*args, **kwargs):
        raise AssertionError("qr_derive sampled")

    for name in ("draw_admissible", "rand_fraction"):
        monkeypatch.setattr(relations, name, sampler)
    monkeypatch.setattr(relations.random, "Random", sampler)
    assert list(inspect.signature(qr_derive).parameters) == ["shift", "degree_budget"]
    for shift in ((0, 1, 1, 0), (-1, -2, -2, 1), (2, 4, 2, -2)):
        qr_derive(shift)


DERIVE_REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "derive.json").read_text())


@pytest.mark.parametrize("key", sorted(DERIVE_REFS["shifts"]))
def test_derived_json_matches_the_benchmark_reference(key):
    rel = qr_derive(ShiftVector.parse(key))
    ref = DERIVE_REFS["shifts"][key]["relation"]
    assert json.dumps(rel.to_json(), sort_keys=True) == json.dumps(ref, sort_keys=True)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        qr_derive((0, 3, 3, 0), degree_budget=1)


def test_sum_zero_shifts_have_locus_factor():
    # for k+l-m+n = 0 the derived Q vanishes on x = c/(ab)
    rng = random.Random(4)
    for shift in [(0, 1, 1, 0), (1, 1, 2, 0)]:
        rel = qr_derive(shift)
        assert family_qgauss().compose(rel.Q.num, shift, Q, 0).is_zero()
        count = 0
        while count < 20:
            pt = {s: F(rng.randint(1, 40), rng.randint(41, 97)) for s in ("a", "b", "c", "q")}
            pt["x"] = pt["c"] / (pt["a"] * pt["b"])
            try:
                v = rel.Q.eval(pt)
            except Exception:
                continue
            assert v == 0
            count += 1


def test_relation_json_round_trip():
    rel = qr_lookup((0, 2, 2, 0))
    obj = rel.to_json()
    back = ThreeTermRelation.from_json(obj)
    assert back.shift == rel.shift and back.Q == rel.Q and back.R == rel.R


def test_relation_survives_pickle():
    rel = qr_lookup((1, 2, 1, -1))
    back = pickle.loads(pickle.dumps(rel))
    assert back == rel and back.to_json() == rel.to_json()


def _sequential_derive(shift):
    """(Q, R) by the axis-by-axis walk: every a step first, then b, c, x;
    each state checked to be in lowest terms, and the last cancellation
    done by sympy's gcd."""
    one, zero = MultiPoly.const(1), MultiPoly.const(0)
    at, v, den = (0, 0, 0, 0), [[one, zero], [zero, one]], Counter()
    for axis, count in zip("abcx", shift):
        for _ in range(abs(count)):
            at, v, den = relations._step(axis, count > 0, at, v, den)
            polys = [e.extend(RELATION_VARS)._to_sym() for e in (*v[0], *v[1], relations._expand(den))]
            assert reduce(lambda g, s: g.gcd(s), (s for s in polys if s)).is_ground
    rep0, rep1 = (RF(e, relations._expand(den)) for e in v[0])
    return ThreeTermRelation(ShiftVector(*shift),
                             (-rep1 * X * (1 - A) * (1 - B) / (1 - C)).cancel(),
                             (rep0 + rep1).cancel())


@pytest.mark.parametrize("shift", [(1, 2, 1, -1), (1, 1, 2, 0), (2, 2, 0, 2)])
def test_walk_order_keeps_relation(shift):
    # (Q, R) is unique, so the balanced walk gives the sequential walk's bytes
    assert qr_derive(shift).to_json() == _sequential_derive(shift).to_json()


_ORACLE_SHIFTS = [s for s in itertools.product((-1, 0, 1), repeat=4) if any(s)] + [(2, 2, 0, 2), (2, 4, 2, -2)]


@pytest.mark.parametrize("shift", _ORACLE_SHIFTS, ids=lambda s: ",".join(map(str, s)))
def test_derived_relation_is_in_lowest_terms(shift):
    # the ladder cancels only by its step factors; sympy's multivariate gcd
    # finds nothing more to cancel, so (Q, R) keep their bytes
    rel = qr_derive(shift)
    for f in (rel.Q, rel.R):
        assert f.cancel().to_json() == f.to_json()


@pytest.fixture
def fresh_templates():
    # the step templates are built once per process: build them again
    # under the test's patches, and drop what the patches built
    relations._template.cache_clear()
    yield
    relations._template.cache_clear()


def test_non_step_denominator_is_a_typed_failure(monkeypatch, fresh_templates):
    # a matrix entry over 1 + a + b, which no step factor divides: the
    # ladder names the step its template was built at and never falls
    # back to a general gcd
    def step(axis, up, p, q):
        m, moved = contiguous_step(axis, up, p, q)
        if axis == "b":
            m = ((m[0][0] / (1 + A + B), m[0][1]), m[1])
        return m, moved

    monkeypatch.setattr(relations, "contiguous_step", step)
    with pytest.raises(VerificationFailed, match="a \\+ b \\+ \\(1\\) of the b up step from 0,0,0,0"):
        qr_derive((1, 1, 0, 0))


def test_factor_keeps_the_sign():
    # q - c and c - abqx are stored as c - q and abqx - c, leading
    # coefficient positive, so their signs go to the constant
    known = relations._VARS + tuple(relations._step_factors((0, 0, 0, 0)))
    den = (3 * X * X * (Q - C) * (C - A * B * Q * X)).num
    c, factors = relations._factor(den, known, "test step")
    assert c == 3
    assert sorted(f.to_text() for f in factors.elements()) == ["a*b*q*x + (-1)*c", "c + (-1)*q", "x", "x"]
    assert den == c * relations._expand(factors)
    with pytest.raises(VerificationFailed, match="test step"):
        relations._factor((1 + A * A).num, known, "test step")


def _walked_points(steps):
    pos = [0, 0, 0, 0]
    for axis, up in steps:
        pos["abcx".index(axis)] += 1 if up else -1
        yield tuple(pos)


@pytest.mark.parametrize("shift", [(0, 4, 4, 0), (2, 4, 2, -2), (3, 3, 0, 3), (-1, 0, 2, -3),
                                   (0, 0, 0, 2), (0, 0, 0, 0)])
def test_balanced_walk_shape(shift):
    points = list(_walked_points(relations._walk(shift)))
    assert len(points) == sum(map(abs, shift))
    assert points[-1:] == ([shift] if any(shift) else [])
    # round robin: after round r each axis has taken min(r, |count|) steps
    for r in range(1, max(map(abs, shift)) + 1):
        took = [min(r, abs(c)) for c in shift]
        assert points[sum(took) - 1] == tuple(t if c > 0 else -t for t, c in zip(took, shift))
    if shift == (0, 4, 4, 0):
        assert points[1::2] == [(0, k, k, 0) for k in range(1, 5)]


def test_qr_derive_walks_balanced(monkeypatch):
    steps = []
    real = relations._step

    def step(axis, up, at, v, den):
        steps.append((axis, up, at))
        return real(axis, up, at, v, den)

    monkeypatch.setattr(relations, "_step", step)
    qr_derive((1, 2, 1, -1))
    assert steps == [("a", True, (0, 0, 0, 0)), ("b", True, (1, 0, 0, 0)), ("c", True, (1, 1, 0, 0)),
                     ("x", False, (1, 1, 1, 0)), ("b", True, (1, 1, 1, -1))]


def test_contiguous_step_runs_once_per_move(monkeypatch, fresh_templates):
    # the ladder builds each of the eight moves once, at the base position
    calls = []

    def step(axis, up, p, q):
        calls.append((axis, up, p))
        return contiguous_step(axis, up, p, q)

    monkeypatch.setattr(relations, "contiguous_step", step)
    for shift in [(2, 4, 2, -2), (-2, -1, -3, 2), (1, 2, 1, -1)]:
        qr_derive(shift)
    assert Counter((axis, up) for axis, up, _ in calls) == Counter(itertools.product("abcx", (True, False)))
    assert all(p == (A, B, C, X) for _, _, p in calls)


def _direct_entries(axis, up, at):
    """The factored entries of the step matrix built and factored at
    position `at` itself: contiguous_step at (aq^k, bq^l, cq^m, xq^n)."""
    p = Phi21Params(A, B, C, Q, X).shifted(at)
    m, _ = contiguous_step(axis, up, (p.a, p.b, p.c, p.x), Q)
    moved = relations._moved_to(at, axis, up)
    known = relations._VARS + tuple(relations._step_factors(at) | relations._step_factors(moved))
    return relations._factored(m, known, "direct step")


def _bench_positions():
    shifts = [ShiftVector.parse(key) for key in DERIVE_REFS["shifts"]]
    return {(0, 0, 0, 0)} | {pos for s in shifts for pos in _walked_points(relations._walk(s))}


_TEMPLATE_POSITIONS = sorted(set(itertools.product((-1, 0, 1), repeat=4)) | _bench_positions())


@pytest.mark.parametrize("at", _TEMPLATE_POSITIONS, ids=lambda s: ",".join(map(str, s)))
def test_moved_template_is_the_direct_step(at):
    # oracle: each of the eight moves' templates, moved to `at` by the
    # q-shift, has the entries that building and factoring there gives
    for axis in "abcx":
        for up in (True, False):
            moved = relations._moved(axis, up, at)
            direct = _direct_entries(axis, up, at)
            for (num, fs), (want_num, want_fs) in zip(moved, direct, strict=True):
                assert num == want_num
                assert +fs == +want_fs


def test_shift_vector_parse():
    s = ShiftVector.parse("1,2,1,-1")
    assert s == (1, 2, 1, -1)
    assert str(s) == "1,2,1,-1"
    with pytest.raises(ValueError):
        ShiftVector.parse("1,2,3")


def test_shift_vector_is_the_tuple():
    from qforge.symmetry import canonical_representative

    s = ShiftVector(0, 1, 1, 0)
    assert s == (0, 1, 1, 0) and hash(s) == hash((0, 1, 1, 0))
    assert str(s) == "0,1,1,0"
    rel = qr_derive((0, 1, 1, 0))
    assert type(rel.shift) is ShiftVector
    assert json.loads(json.dumps(rel.to_json()))["shift"] == "0,1,1,0"
    rep, _ = canonical_representative((0, 0, 0, 2))
    assert type(rep) is ShiftVector and rep == ShiftVector(0, 2, 2, 0)


def _phi_pair(p, q):
    A, B, C, y = p
    return tuple(phi21_exact(Phi21Params(A, B, C, q, z)).value for z in (y, y * q))


@pytest.mark.parametrize("field", ["Q", "Q(zeta_3)"])
@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
@pytest.mark.parametrize("axis", "abcx")
def test_contiguous_step_moves_exact_series_pair(axis, up, field):
    # b = q^-r with r >= 2 keeps the series terminating after any one move;
    # a/q in (1, 3/2), c/q in (3/2, 2) and y < q keep the points off every
    # (c;q)_i = 0 and off the loci where a move is singular: a = 1 (a up),
    # c = q (c down), c = a (a down, c up), y = q (x down)
    rng = random.Random(f"{axis}{up}{field}")
    z = ExactScalar.zeta(3) if field == "Q(zeta_3)" else 1
    for _ in range(20):
        q = rand_fraction(rng)
        a = q * (1 + rand_fraction(rng)) * z
        c = q * (F(3, 2) + rand_fraction(rng)) * z
        p = (a, q ** -rng.randint(2, 6), c, q * rand_fraction(rng))
        m, moved = contiguous_step(axis, up, p, q)
        assert all(isinstance(e, (int, F, ExactScalar)) for row in m for e in row)
        r0, r1 = _phi_pair(p, q)
        assert _phi_pair(moved, q) == (m[0][0] * r0 + m[0][1] * r1, m[1][0] * r0 + m[1][1] * r1)


class _ScriptedRng:
    def __init__(self, values):
        self.values = iter(values)

    def randint(self, lo, hi):
        return next(self.values)


def test_sample_relation_point_draws_once():
    # q = 1/4, a = b = x = 1/3 and c = 1/27 = abx: one draw, then the error
    rng = _ScriptedRng([4, 1, 3, 1, 3, 1, 27, 1, 3, 1])
    with pytest.raises(ZeroDenominator):
        sample_relation_point(rng, ShiftVector(0, 1, 1, 0))


def _fresh_stdout(code: str) -> str:
    """The stripped stdout of `code` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(qforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_evaluating_loaded_relations_never_imports_sympy():
    code = """
import sys
from fractions import Fraction as F
from qforge.families import family_root_of_unity, solution_families
from qforge.forge import check_family, product_R, telescoped_check
from qforge.relations import ThreeTermRelation, qr_lookup

shift = (1, 2, 1, -1)
rel = ThreeTermRelation.from_json(qr_lookup(shift).to_json())
fam = solution_families(shift)[0]
assert check_family(shift, fam, relation=rel)
run = telescoped_check(shift, fam, 3, {"a": F(3), "b": F(64), "q": F(1, 2)},
                       mode="exact", relation=rel)
assert run.passed
product_R((0, 4, 4, 0), family_root_of_unity(4), 4)
print("sympy" in sys.modules)
"""
    assert _fresh_stdout(code) == "False"


def test_derivation_never_imports_sympy():
    code = """
import json
import sys
from qforge.relations import qr_derive

json.dumps(qr_derive((2, 2, 0, 2)).to_json())
print("sympy" in sys.modules)
"""
    assert _fresh_stdout(code) == "False"
