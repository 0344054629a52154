import itertools
import random

import pytest

from qforge import symmetry
from qforge.errors import GroupNotClosed
from qforge.poly import RationalFunction as RF
from qforge.relations import ShiftVector
from qforge.symmetry import (
    SHIFT_FORMULAS,
    FullPoint,
    apply_generator,
    apply_word_point,
    apply_word_shift,
    canonical_representative,
    expand_word,
    from_lambda,
    lambda_group,
    orbit_enumerate,
    qualifying_members,
    representative_condition,
    to_lambda,
)

GRID3 = [ShiftVector(*t) for t in itertools.product(range(-3, 4), repeat=4)]


def test_word_expansion_syntactic():
    assert expand_word((4,)) == (3, 2, 1, 3, 1, 2, 3)
    assert expand_word((5,)) == (1, 3, 1, 3, 1, 2)
    assert expand_word((0, 6)) == (0, 1, 3, 1, 3, 1, 3)
    with pytest.raises(ValueError):
        expand_word((7,))


def test_sigma3_full_point():
    p = FullPoint.generic((1, 2, 1, -1))
    out = apply_generator(3, p)
    assert out.shift == (2, 1, 1, -1)
    assert out.a == RF.var("b") and out.b == RF.var("a")
    assert out.c == RF.var("c") and out.x == RF.var("x")


def test_sigma4_fixes_1_2_1_m1():
    assert apply_word_shift((4,), (1, 2, 1, -1)) == (1, 2, 1, -1)


def test_sigma0_involution_on_points():
    p = FullPoint.generic((2, -1, 3, 1))
    out = apply_generator(0, apply_generator(0, p))
    assert out.shift == p.shift
    assert all(x == y for x, y in zip(out.params(), p.params()))


def test_involutions_on_grid():
    for s in GRID3:
        assert apply_word_shift((0, 0), s) == s
        assert apply_word_shift((3, 3), s) == s


def test_derived_shift_formulas_match_expansion():
    for s in GRID3[:500]:
        for g in (4, 5, 6):
            assert apply_word_shift((g,), s) == SHIFT_FORMULAS[g](*s)


def test_generator_identities_on_grid():
    for s in GRID3:
        assert apply_word_shift((1,), s) == apply_word_shift((3, 4, 5, 4, 3, 6), s)
        assert apply_word_shift((2,), s) == apply_word_shift((3, 5, 6), s)


def test_conjugation_table():
    from qforge.symmetry import _LAMBDA_GENS, _mat_apply

    # the matrices are built from the images of unit vectors, so this
    # checks that the shift action is linear in lambda coordinates
    for s in GRID3:
        lam = to_lambda(s)
        for word, mat in _LAMBDA_GENS:
            assert _mat_apply(mat, lam) == to_lambda(apply_word_shift(word, s))


def test_lambda_bijection():
    assert to_lambda((0, 0, 0, 0)) == (0, 0, 0, 0)
    assert to_lambda((1, 2, 1, -1)) == (1, 2, 1, 2)
    assert to_lambda((0, 0, 0, 2)) == (0, 0, -2, 0)
    for s in GRID3[:300]:
        assert from_lambda(to_lambda(s)) == s


def test_group_order():
    assert len(lambda_group()) == 96


def test_lambda_group_refuses_an_infinite_closure(monkeypatch):
    # a shear has infinite order: the closure stops once it passes 96
    # matrices instead of growing until the process is killed
    shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(symmetry, "_LAMBDA_GENS", (((0,), shear),))
    with pytest.raises(GroupNotClosed, match="more than 96 matrices"):
        lambda_group.__wrapped__()


def test_canonical_representative_examples():
    rep, word = canonical_representative((0, 1, 1, 0))
    assert rep == (0, 1, 1, 0)
    rep, word = canonical_representative((1, 2, 1, -1))
    assert rep == (1, 2, 1, -1)
    rep, word = canonical_representative((0, 0, 0, 2))
    assert rep == (0, 2, 2, 0)
    # the reported word actually maps the shift to its representative
    assert apply_word_shift(word, (0, 0, 0, 2)) == rep


def test_representative_condition():
    assert representative_condition(to_lambda((0, 2, 2, 0)))
    assert not representative_condition(to_lambda((0, 0, 0, 2)))


def test_orbit_examples():
    assert orbit_enumerate((0, 0, 0, 0)) == {ShiftVector(0, 0, 0, 0)}
    assert ShiftVector(0, -1, -1, 0) in orbit_enumerate((0, 1, 1, 0))
    assert ShiftVector(0, 2, 2, 0) in orbit_enumerate((0, 0, 0, 2))


def test_orbit_constancy_and_exactly_one_sampled():
    rng = random.Random(0)
    for _ in range(60):
        s = ShiftVector(*(rng.randint(-4, 4) for _ in range(4)))
        rep, _ = canonical_representative(s)
        orbit = sorted(orbit_enumerate(s))
        members = rng.sample(orbit, min(4, len(orbit)))
        for m in members:
            assert canonical_representative(m)[0] == rep
        assert qualifying_members(s) == {rep}


def test_word_from_representative_consistent_on_full_points():
    # parameter transport through a canonicalizing word stays well defined
    s = ShiftVector(0, 0, 0, 2)
    rep, word = canonical_representative(s)
    p = apply_word_point(word, FullPoint.generic(s))
    assert p.shift == rep


def test_undefined_action_on_zero_parameter():
    from qforge.errors import UndefinedAction

    p = FullPoint(ShiftVector(0, 1, 1, 0), RF.var("a"), RF.var("b"), RF.const(0), RF.var("x"))
    with pytest.raises(UndefinedAction):
        apply_generator(2, p)
    q = FullPoint(ShiftVector(0, 1, 1, 0), RF.const(0), RF.var("b"), RF.var("c"), RF.var("x"))
    with pytest.raises(UndefinedAction):
        apply_generator(1, q)
