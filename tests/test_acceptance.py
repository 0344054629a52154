"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  All tolerances are fixed here."""

import itertools
import random
import time
from fractions import Fraction as F

import mpmath

from qforge.errors import ConstraintViolated
from qforge.exact import ExactScalar
from qforge.families import (
    family_qbinom2,
    family_qgauss,
    family_qkummer,
    family_root_of_unity,
)
from qforge.forge import (
    check_constraints,
    conjecture_check,
    default_registry,
    sv5_cauchy_check,
    telescoped_check,
    verify_identity,
)
from qforge.qseries import Phi21Params, phi21_exact, phi21_numeric, qpoch_finite
from qforge.relations import (
    TABLE_SHIFTS,
    ShiftVector,
    qr_derive,
    qr_lookup,
    rand_fraction_wide,
    verify_relation,
)
from qforge.symmetry import (
    apply_word_shift,
    canonical_representative,
    lambda_group,
    orbit_enumerate,
    qualifying_members,
    to_lambda,
)

SEED = 20250808
Z3 = ExactScalar.zeta(3)
Z4 = ExactScalar.zeta(4)


from acceptance_report import report as _report


def test_criterion_1_exact_identity_suite():
    """sv1-sv3 hold exactly for 0 <= M,N <= 6 at q in {1/2, 2/3, 3/5};
    sv2 returns exactly 0; runtime < 10 s."""
    t0 = time.time()
    qs = (F(1, 2), F(2, 3), F(3, 5))
    count = 0
    for ident in ("sv1", "sv2", "sv3"):
        for q in qs:
            for m, n in itertools.product(range(7), range(7)):
                case = verify_identity(ident, {"M": m, "N": n, "q": q})
                assert case.status == "pass", (ident, m, n, q, case)
                if ident == "sv2":
                    assert case.lhs == "0", (m, n, q, case.lhs)
                count += 1
    elapsed = time.time() - t0
    _report("1 exact identity suite",
            count == 3 * 3 * 49 and elapsed < 10.0,
            f"{count} cases in {elapsed:.2f}s")


def test_criterion_2_cyclotomic_suite():
    """sv4 exact for 0 <= N <= 8 at q in {1/2, 2/3} with w = zeta_3;
    the N=1, q=1/2 value equals -(1+3*zeta_3)/7."""
    count = 0
    for q in (F(1, 2), F(2, 3)):
        for n in range(9):
            case = verify_identity("sv4", {"N": n, "q": q, "w": Z3})
            assert case.status == "pass", (n, q, case)
            count += 1
    pinned = verify_identity("sv4", {"N": 1, "q": F(1, 2), "w": Z3})
    ok = pinned.lhs == "cyclo(3)[-1/7, -3/7]"
    _report("2 cyclotomic suite (sv4)", count == 18 and ok,
            f"{count} cases; N=1,q=1/2 value {pinned.lhs}")


def test_criterion_3_sv5_suite():
    """sv5 exact on the a-grid for 0 <= N <= 8, q in {1/2, 2/3}, except
    the provably singular cells a = q (= 1/2 at q = 1/2) with N >= 1,
    which must surface as ConstraintViolated; the Cauchy-product oracle
    confirms (1-a^(N+1))/(1-a) on the full grid for N <= 12."""
    grid_a = [F(2), F(3), F(1, 2), F(-1), Z3, Z4]
    passed = 0
    singular = []
    for a in grid_a:
        for q in (F(1, 2), F(2, 3)):
            for n in range(9):
                try:
                    case = verify_identity("sv5", {"a": a, "N": n, "q": q})
                except ConstraintViolated:
                    singular.append((a, q, n))
                    continue
                assert case.status == "pass", (a, q, n, case)
                passed += 1
    expected_singular = [(F(1, 2), F(1, 2), n) for n in range(1, 9)]
    oracle_ok = all(sv5_cauchy_check(a, 12) for a in grid_a)
    _report(
        "3 sv5 suite",
        passed == 6 * 2 * 9 - 8 and singular == expected_singular and oracle_ok,
        f"{passed} exact cells, singular locus {len(singular)} cells (a=q only), oracle N<=12 ok",
    )


def test_criterion_4_numeric_identity_suite():
    """qbinom, qbinom2, qgauss, qkummer to 1e-12 at >= 25 admissible
    random points each with |q| <= 3/5; runtime < 30 s."""
    t0 = time.time()
    registry = default_registry()
    rng = random.Random(SEED)
    q_pool = [F(1, 2), F(2, 5), F(3, 5), F(1, 3), F(5, 12), F(4, 7)]
    for ident in ("qbinom", "qbinom2", "qgauss", "qkummer"):
        record = registry[ident]
        done = 0
        attempts = 0
        while done < 25:
            attempts += 1
            assert attempts < 2000, f"sampling exhausted for {ident}"
            bindings = {"q": q_pool[attempts % len(q_pool)]}
            for s in record.free:
                bindings[s] = rand_fraction_wide(rng)
            try:
                check_constraints(record, bindings)
            except ConstraintViolated:
                continue
            case = verify_identity(ident, bindings, tol=1e-12)
            assert case.status == "pass", (ident, bindings, case.abs_err)
            done += 1
    elapsed = time.time() - t0
    _report("4 numeric identity suite", elapsed < 30.0, f"4 x 25 points in {elapsed:.2f}s")


def test_criterion_5_relation_table_reproduction():
    """qr_derive reproduces all five printed (Q,R) pairs under
    cross-multiplication equality, with residual < 1e-10 at 20 points."""
    for shift in TABLE_SHIFTS:
        derived = qr_derive(shift)
        table = qr_lookup(shift)
        assert derived.Q == table.Q, shift
        assert derived.R == table.R, shift
        verify_relation(derived, n_points=20, tol=1e-10, seed=SEED + 1)
    _report("5 relation table reproduction", True, "5 shifts, cross-mult equal + residual < 1e-10")


def test_criterion_6_telescoping():
    """The four telescoped displays for N = 1..5: the two non-terminating
    families numerically to 1e-12, the kummer-type and root-of-unity
    families exactly at terminating b."""
    q = F(1, 2)
    # shift (0,0,0,2), family (a,-a,-q,x), numeric
    run14 = telescoped_check((0, 0, 0, 2), family_qbinom2(), 5,
                             {"a": F(1, 3), "x": F(1, 4), "q": q}, tol=1e-12)
    # shift (0,1,1,0), family (a,b,c,c/(ab)), numeric at an admissible
    # point (|c/ab| < 1)
    run15 = telescoped_check((0, 1, 1, 0), family_qgauss(), 5,
                             {"a": F(1, 3), "b": F(1, 5), "c": F(1, 30), "q": q}, tol=1e-12)
    ok16 = True
    for n in range(1, 6):
        for b_exp in (-2 * n, -2 * n - 1):
            run = telescoped_check((1, 2, 1, -1), family_qkummer(), n,
                                   {"a": F(3), "b": q**b_exp, "q": q}, mode="exact")
            ok16 = ok16 and run.passed
    ok17 = True
    for n in range(1, 6):
        for j in (0, 1, 2):
            run = telescoped_check((0, 3, 3, 0), family_root_of_unity(3), n,
                                   {"b": q ** (-3 * n - j), "q": q}, mode="exact")
            ok17 = ok17 and run.passed
    _report("6 telescoping displays",
            run14.passed and run15.passed and ok16 and ok17,
            "N=1..5; kummer at b=q^-2N, q^-2N-1; root-of-unity at b=q^-3N-j")


def test_criterion_7_symmetry_grid():
    """Conjugation formulas and both generator identities on [-4,4]^4;
    canonical_representative orbit-constant; the (0,0,0,2) example."""
    from qforge.symmetry import _LAMBDA_GENS, _mat_apply, _mat_mul

    grid = [ShiftVector(*t) for t in itertools.product(range(-4, 5), repeat=4)]
    for s in grid:
        lam = to_lambda(s)
        for word, mat in _LAMBDA_GENS:
            assert _mat_apply(mat, lam) == to_lambda(apply_word_shift(word, s)), s
        assert apply_word_shift((1,), s) == apply_word_shift((3, 4, 5, 4, 3, 6), s), s
        assert apply_word_shift((2,), s) == apply_word_shift((3, 5, 6), s), s

    # the five lambda generators stabilize the cached group closure, so
    # image sets (orbits) are genuinely group orbits
    group_mats = {mat for mat, _ in lambda_group()}
    for _, gen in _LAMBDA_GENS:
        assert all(_mat_mul(gen, mat) in group_mats for mat in group_mats)

    # direct orbit-constancy on sampled members, plus the exactly-one report
    rng = random.Random(SEED)
    reps = {}
    ties = []
    for s in grid:
        rep, _ = canonical_representative(s)
        reps[s] = rep
    sample = rng.sample(grid, 400)
    for s in sample:
        rep = reps[s]
        orbit = sorted(orbit_enumerate(s))
        for member in rng.sample(orbit, min(3, len(orbit))):
            got = reps.get(member)
            if got is None:
                got, _ = canonical_representative(member)
            assert got == rep, (s, member)
        if qualifying_members(s) != {rep}:
            ties.append(s)
    rep0002, _ = canonical_representative((0, 0, 0, 2))
    # orbits with != 1 qualifying member are reported, not failed
    _report("7 symmetry grid",
            rep0002 == (0, 2, 2, 0),
            f"grid 9^4; tie orbits reported: {len(ties)}; rep(0,0,0,2)={rep0002}")


def test_criterion_8_conjecture_patterns():
    """check_family (N_max=4) with derived relations for the
    four instances; (0,4,4,0) reproduces sv5 with a=zeta_4 for N <= 4."""
    cases = [
        ("lln_even", (2, 2, 0, 2)),
        ("sum_zero", (1, 1, 2, 0)),
        ("kll", (2, 4, 2, -2)),
        ("oll_root", (0, 4, 4, 0)),
    ]
    for pattern, instance in cases:
        report = conjecture_check(pattern, instance, n_max=4)
        assert report.passed, (pattern, instance, [s.to_json() for s in report.steps])
    # the zeta_4 reproduction, asserted directly as well
    for n in range(5):
        case = verify_identity("sv5", {"a": Z4, "N": n, "q": F(1, 2)})
        assert case.status == "pass", (n, case)
    _report("8 conjecture patterns", True, "4 instances; sv5 at zeta_4 exact for N<=4")


def test_criterion_9_property_suites():
    """>= 1000 randomized cases per suite under a fixed seed: field
    axioms, q-Pochhammer recurrence, 2phi1 a/b symmetry, numeric/exact
    agreement."""
    rng = random.Random(SEED)

    # field axioms: 1000 cases per order
    for order in (1, 3, 4, 5, 6):
        from qforge.exact import euler_phi

        deg = euler_phi(order)
        for _ in range(1000):
            x, y, z = (
                ExactScalar(order, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])
                for _ in range(3)
            )
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert (x * (1 / x)).is_one()

    # q-Pochhammer recurrence: 1000 cases
    for _ in range(1000):
        base = F(rng.randint(-9, 9), rng.randint(1, 9))
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        i = rng.randint(0, 32)
        assert qpoch_finite(base, q, i + 1) == qpoch_finite(base, q, i) * (1 - base * q**i)

    # 2phi1 symmetry in a, b: 1000 terminating exact cases
    for _ in range(1000):
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        a = q ** -rng.randint(0, 5)
        b = F(rng.randint(1, 9), rng.randint(10, 19))
        c = F(rng.randint(1, 9), rng.randint(10, 19))
        x = F(rng.randint(1, 9), rng.randint(10, 19))
        assert (phi21_exact(Phi21Params(a, b, c, q, x)).value
                == phi21_exact(Phi21Params(b, a, c, q, x)).value)

    # numeric/exact agreement: 1000 terminating cases
    tol = 1e-13
    for _ in range(1000):
        q = F(rng.randint(1, 9), rng.randint(10, 19))
        b = q ** -rng.randint(0, 5)
        a = F(rng.randint(1, 9), rng.randint(10, 19))
        c = F(rng.randint(1, 9), rng.randint(10, 19))
        x = F(rng.randint(1, 9), rng.randint(10, 19))
        exact = phi21_exact(Phi21Params(a, b, c, q, x)).value
        numeric = phi21_numeric(Phi21Params(a, b, c, q, x), tol)
        assert numeric.terminated
        with mpmath.workprec(150):
            ref = exact.to_complex(130)
            assert abs(numeric.value.val - ref) <= 10 * tol * (1 + abs(ref))

    _report("9 property suites", True, "4 suites x >= 1000 cases, seed fixed")
