"""Mutants of src/qforge that the tests must kill.

Each mutant replaces one piece of text in one source file, `old` by
`new`, and names the tests of which at least one must fail once it is
applied.  `tests/test_mutants.py` checks, without running any mutant,
that each `old` occurs exactly once in its file, so that a change that
moves the code must move its mutant too.  To apply the mutants one at a
time to a copy of src/ and run their tests (stdlib only, a few minutes):

    python3 tests/run_mutants.py [NAME ...]
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qforge
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    breaks: str  # what the tests must catch


MUTANTS = (
    Mutant(
        "family-zero-at-witness-is-defined", "forge.py",
        "if not defined and fam.compose(rel.Q.den, shift, q, n - 1).is_zero():",
        "if False and fam.compose(rel.Q.den, shift, q, n - 1).is_zero():",
        ("tests/test_forge.py::test_check_family_proves_a_degenerate_family_without_a_draw",),
        "check_family takes a zero of den(Q) at the witness for a defined Q^(N) without composing",
    ),
    Mutant(
        "family-zero-at-witness-is-undefined", "forge.py",
        "if not defined and fam.compose(rel.Q.den, shift, q, n - 1).is_zero():",
        "if not defined:",
        ("tests/test_forge.py::test_a_zero_at_the_witness_falls_back_to_the_composition",),
        "check_family takes a zero of den(Q) at the witness for an undefined Q^(N) without composing",
    ),
    Mutant(
        "closed-tail-bound-zero", "qseries.py",
        "    return -(-t * x * num // ((one - x) * (den - num)))",
        "    return 0",
        ("tests/test_oracle.py::test_phi21_numeric_near_unit_x_against_qhyper",),
        "the closed 2phi1 tail t_i x / (1 - x) is certified with no error bound (E = 0)",
    ),
    Mutant(
        "closed-tail-sigma-without-geometric-sum", "qseries.py",
        "    den = (one - q) * d2 * d3",
        "    den = one * d2 * d3",
        ("tests/test_qseries.py::test_phi21_numeric_near_terminating_a_is_not_falsely_certified",),
        "the closed tail's sigma drops its factor 1 / (1 - |q|), the sum of the |q^(i+s)|",
    ),
    Mutant(
        "series-order-d", "relations.py",
        "order = _gamma_degree(shift, d) + 1",
        "order = _gamma_degree(shift, d)",
        ("tests/test_relations.py::test_series_order_is_one_past_the_degree",),
        "the series check matches D coefficients, one short of the D + 1 that prove the identity",
    ),
    Mutant(
        "witness-a-is-q", "relations.py",
        '"3/17 5/19 7/23 1/5",',
        '"1/5 5/19 7/23 1/5",',
        ("tests/test_relations.py::test_witness_points_meet_the_side_conditions",),
        "a witness point's a equals its q, so a q^-1 = 1 breaks the series check's side conditions",
    ),
    Mutant(
        "complex-qpoch-factor-sign", "qseries.py",
        "re, im, rad = _mul((re, im, rad), (fr, -bi, brad), xa=p_abs)",
        "re, im, rad = _mul((re, im, rad), (fr, bi, brad), xa=p_abs)",
        ("tests/test_qseries.py::test_complex_qpoch_infinite_matches_the_primitive_loop_at_seeded_points",),
        "the complex q-Pochhammer factor 1 - b q^m takes +Im(b q^m) for its imaginary part",
    ),
    Mutant(
        "complex-phi21-divisor-sign", "qseries.py",
        "den = _mul((dr, -ui, urad), (er, -ci, crad), wp)",
        "den = _mul((dr, -ui, urad), (er, ci, crad), wp)",
        ("tests/test_qseries.py::test_complex_kernel_matches_the_primitive_loop",),
        "the complex 2phi1 divisor's factor 1 - c q^(i-1) takes +Im(c q^(i-1)) for its imaginary part",
    ),
    Mutant(
        "complex-qpoch-product-shift", "qseries.py",
        "br, bi, brad = _mul((br, bi, brad), qb, wp, ya=q_abs)",
        "br, bi, brad = _mul((br, bi, brad), qb, wp - 1, ya=q_abs)",
        ("tests/test_qseries.py::test_complex_qpoch_infinite_matches_the_primitive_loop_at_seeded_points",),
        "the complex q-Pochhammer's b q^(m+1) is shifted by one bit too few, doubling it",
    ),
    Mutant(
        "complex-phi21-partial-sum-modulus", "qseries.py",
        "t_abs, s_abs, u_abs = _abs_up(tr, ti), _abs_up(re, im), _abs_up(ur, ui)",
        "t_abs, s_abs, u_abs = _abs_up(tr, ti), abs(re), _abs_up(ur, ui)",
        ("tests/test_qseries.py::test_complex_kernel_matches_the_primitive_loop",),
        "the complex 2phi1 body takes |Re S_i| for the partial sum's modulus |S_i|",
    ),
    Mutant(
        "real-phi21-quotient-ceiling", "qseries.py",
        "tr = (tr << wp) // yr",
        "tr = -(-(tr << wp) // yr)",
        ("tests/test_qseries.py::test_real_kernel_matches_the_primitive_loop_at_prec_128",),
        "the real 2phi1 term's quotient rounds up where approx._div floors",
    ),
    Mutant(
        "terminating-exponent-below-one", "forge.py",
        'r = 3 * max(shift.l if v == "b" else shift.k, 0) + 1',
        'r = 3 * max(shift.l if v == "b" else shift.k, 0) - 1',
        ("tests/test_forge.py::test_conjecture_telescopes_exactly_on_every_instance_of_the_box",),
        "the telescoping point's b = q^-r with r = 3 max(l, 0) - 1, which at l = 0 is q itself: "
        "no series terminates",
    ),
    Mutant(
        "telescoping-small-product-unscaled", "forge.py",
        'shifted = phi_at(i, 1 if mode == "exact" else min(1, prod.magnitude()) or 1)',
        "shifted = phi_at(i, 1)",
        ("tests/test_cli.py::test_conjecture_telescopes_through_a_small_product",),
        "numeric telescoping sums each moved series to tol / 10 whatever |prod R|, "
        "so 1 / prod R enlarges its error past tol",
    ),
    Mutant(
        "compose-without-phi-reduction", "families.py",
        "return out if root is None else RationalFunction(out.num.mod_cyclotomic(*root), out.den, False)",
        "return out",
        ("tests/test_families.py::test_compose_is_the_family_map_by_rational_function_arithmetic",
         "tests/test_forge.py::test_root_of_unity_composite_vanishes_only_modulo_phi"),
        "compose leaves the numerator unreduced on a root-of-unity family, where it vanishes "
        "only modulo Phi_l(w)",
    ),
    Mutant(
        "product-r-without-zero-den-guard", "forge.py",
        "if den.is_zero():",
        "if False:",
        ("tests/test_forge.py::test_product_r_names_the_step_whose_r_is_undefined",),
        "product_R divides by a den(R) that composes to 0, a ZeroDenominator that names no step",
    ),
    Mutant(
        "eval-zero-value-not-coerced", "poly.py",
        "if isinstance(v, RationalFunction) and v.is_zero():",
        "if False:",
        ("tests/test_poly.py::test_eval_takes_a_zero_rational_function_as_the_int_zero",
         "tests/test_families.py::test_compose_takes_a_zero_value"),
        "a zero RationalFunction value is no constant times a monomial, so eval refuses it",
    ),
    Mutant(
        "cli-ignores-precision-variable", "cli.py",
        "report, code = execute(ns.command, opts, prec)",
        "report, code = execute(ns.command, opts, DEFAULT_PREC)",
        ("tests/test_cli.py::test_precision_variable_sets_the_default",),
        "the CLI validates QFORGE_PRECISION but runs at DEFAULT_PREC whatever it says",
    ),
    Mutant(
        "constraint-ignores-prec", "forge.py",
        'val = closed_form_eval(con["expr"], bindings, "numeric", 1e-12, prec)',
        'val = closed_form_eval(con["expr"], bindings, "numeric", 1e-12)',
        ("tests/test_forge.py::test_abs_lt_constraint_is_shown_at_the_callers_precision",),
        "check_constraints shows an abs_lt bound at DEFAULT_PREC, not at the caller's prec",
    ),
    Mutant(
        "ball-shift-adds-no-units", "approx.py",
        "        return re >> k, im >> k, 2 - (-rad >> k)",
        "        return re >> k, im >> k, -(-rad >> k)",
        ("tests/test_approx.py::test_operators_contain_exact_result",),
        "a ball shifted right keeps its radius, rounded up, but not the two units its floored parts lose",
    ),
    Mutant(
        "ball-product-drops-radius-product", "approx.py",
        "xa * ye + ya * xe + xe * ye)",
        "xa * ye + ya * xe)",
        ("tests/test_approx.py::test_operators_contain_exact_result",),
        "the radius of a product x y drops its term rx ry",
    ),
    Mutant(
        "coerce-floor-adds-no-unit", "approx.py",
        "return _normalized((mr, mi, (not xr) + (not xi)), -s, prec)",
        "return _normalized((mr, mi, 0), -s, prec)",
        ("tests/test_approx.py::test_constructor_err_covers_rounding",),
        "an exact value floored to prec bits carries radius 0, not a unit per part the floor changed",
    ),
    Mutant(
        "embedding-error-zero", "approx.py",
        "    return units + (not exact)",
        "    return 0",
        ("tests/test_approx.py::test_coerce_cyclotomic_unit_power_holds_err",),
        "a cyclotomic value's embedding into C counts no error for Horner's rule",
    ),
    Mutant(
        "ball-quotient-floor-slack-one", "approx.py",
        "rad = (xe << s) + (_abs_up(re, im) + 2) * ye",
        "rad = (xe << s) + (_abs_up(re, im) + 1) * ye",
        ("tests/test_approx.py::test_div_radius_near_a_vanishing_divisor",),
        "a quotient's radius bounds |x / y| by |re + i im| + 1, which the two floored parts can exceed",
    ),
    Mutant(
        "real-phi21-divisor-zero-admitted", "qseries.py",
        "            if low <= 0:",
        "            if low < 0:",
        ("tests/test_qseries.py::test_divisor_not_bounded_away_from_zero",),
        "the real 2phi1 term divides by a ball whose modulus equals its radius, one that holds 0",
    ),
    Mutant(
        "real-q-power-radius-one-unit", "qseries.py",
        "ur, urad = ur * qr >> wp, 2 - (-(u_abs * qrad",
        "ur, urad = ur * qr >> wp, 1 - (-(u_abs * qrad",
        ("tests/test_qseries.py::test_real_kernel_matches_the_primitive_loop_at_prec_128",),
        "the real q^i radius gains one unit for its floored product where approx._mul adds two",
    ),
    Mutant(
        "cleared-terms-without-f-constant", "qseries.py",
        "fc, gc = qd * cd * xn, ad * bd * xd",
        "fc, gc = 1, ad * bd * xd",
        ("tests/test_qseries.py::test_cleared_terms_are_the_exact_terms",),
        "the cleared term ratio f_i drops its constant factor qd cd xn",
    ),
    Mutant(
        "resume-keeps-stale-streak", "qseries.py",
        "        streak = streak + (pair,) if pair[0] << left < tm * (pair[1] + one) else ()",
        "        streak = streak + (pair,)",
        ("tests/test_qseries.py::test_resumed_sum_equals_a_fresh_one",),
        "a resumed sum keeps the small-term streak of the looser tol, so the ratio rule stops it at once",
    ),
    Mutant(
        "shifted-moves-x-by-m", "qseries.py",
        "self.x * q**n)",
        "self.x * q**m)",
        ("tests/test_qseries.py::test_shifted_composes",),
        "Phi21Params.shifted moves x by the shift's m in place of its n",
    ),
    Mutant(
        "c-down-step-at-c", "relations.py",
        't = C / q if axis == "c" else p[_AXES.index(axis)]',
        't = C if axis == "c" else p[_AXES.index(axis)]',
        ("tests/test_relations.py::test_contiguous_step_moves_exact_series_pair",),
        "the direct c-down matrix is built at t = C where the a-up matrix at t = C / q is",
    ),
    Mutant(
        "step-inverse-transposed", "relations.py",
        "return ((m11 / det, -m01 / det), (-m10 / det, m00 / det)), moved",
        "return ((m11 / det, -m10 / det), (-m01 / det, m00 / det)), moved",
        ("tests/test_relations.py::test_contiguous_step_moves_exact_series_pair",),
        "an opposite move takes the transpose of the direct matrix's inverse",
    ),
    Mutant(
        "norm-drops-last-conjugate", "exact.py",
        "    for k in range(2, order):",
        "    for k in range(2, order - 1):",
        ("tests/test_exact.py::test_field_div_examples",),
        "the conjugate product behind inverse leaves out the unit k = order - 1",
    ),
    Mutant(
        "power-table-reduction-sign", "exact.py",
        "row = [c - top * p for c, p in zip(row, phi)]",
        "row = [c + top * p for c, p in zip(row, phi)]",
        ("tests/test_exact.py::test_normalize_zeta3_relation",),
        "zeta^phi(n) is reduced by adding Phi_n where it must subtract it",
    ),
    Mutant(
        "embed-at-stride-one", "exact.py",
        "        raw[::k] = self.nums",
        "        raw[:len(self.nums)] = self.nums",
        ("tests/test_exact.py::test_mixed_order_embedding",),
        "embedding into Q(zeta_(kn)) keeps zeta_n^j as zeta_(kn)^j, not zeta_(kn)^(kj)",
    ),
    Mutant(
        "real-qpoch-product-radius-signed", "qseries.py",
        "re, rad = re * fr, p_abs * brad + abs(fr) * rad + rad * brad",
        "re, rad = re * fr, p_abs * brad + fr * rad + rad * brad",
        ("tests/test_qseries.py::test_qpoch_infinite_matches_the_primitive_loop",),
        "the real q-Pochhammer product's radius takes the factor 1 - b q^m for its modulus",
    ),
    Mutant(
        "real-qpoch-power-radius-one-unit", "qseries.py",
        "            re, rad = re * fr, p_abs * brad + abs(fr) * rad + rad * brad\n"
        "            br, brad = br * qr >> wp, 2 - (",
        "            re, rad = re * fr, p_abs * brad + abs(fr) * rad + rad * brad\n"
        "            br, brad = br * qr >> wp, 1 - (",
        ("tests/test_qseries.py::test_qpoch_infinite_matches_the_primitive_loop",),
        "the real q-Pochhammer's b q^(m+1) radius gains one unit for its floored product where approx._mul adds two",
    ),
    Mutant(
        "real-phi21-quotient-slack-one", "qseries.py",
        "trad = 2 - (-((trad << wp) + (t_abs + 2) * yrad) // low)",
        "trad = 2 - (-((trad << wp) + (t_abs + 1) * yrad) // low)",
        ("tests/test_qseries.py::test_quotient_radius_near_a_vanishing_divisor",),
        "the real 2phi1 term's radius bounds |t_i| by its floored midpoint + 1, where approx._div takes + 2",
    ),
    Mutant(
        "ratio-tail-without-term-radius", "qseries.py",
        "_tail_bound(bounds, streak[2][0] + trad, i, wp)",
        "_tail_bound(bounds, streak[2][0], i, wp)",
        ("tests/test_qseries.py::test_phi21_numeric_kernel_matches_approx_sum",),
        "the ratio rule bounds the tail by the last term's midpoint, not by its ball",
    ),
    Mutant(
        "lambda-matrices-from-shift-units", "symmetry.py",
        "cols = (to_lambda(apply_word_shift(word, from_lambda(e))) for e in _IDENTITY)",
        "cols = (to_lambda(apply_word_shift(word, e)) for e in _IDENTITY)",
        ("tests/test_symmetry.py::test_conjugation_table",),
        "the lambda matrices are built from the shift-space unit vectors, not the lambda-space ones",
    ),
)
