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
)
