import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import qforge
from qforge import cli, forge
from qforge.cli import ReportDocument, build_parser, main
from qforge.errors import UnreachableTolerance
from qforge.forge import build_default_registry, default_registry, load_registry


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_grid_exact(capsys):
    code, out = run_cli(capsys, "verify", "--identity", "sv1",
                        "--grid", "M=0..6,N=0..6", "--q", "1/2", "--mode", "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"total": 49, "passed": 49, "failed": 0, "errored": 0}


def test_verify_multiple_q(capsys):
    code, out = run_cli(capsys, "verify", "--identity", "sv2",
                        "--grid", "M=0..2,N=0..2", "--q", "1/2,2/3")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["total"] == 18


@pytest.mark.parametrize("text, qs", [
    ("cyclo(4)[0, 1/2]", ["cyclo(4)[0, 1/2]"]),
    ("1/2,cyclo(4)[0, 1/2],2/3", ["1/2", "cyclo(4)[0, 1/2]", "2/3"]),
    ("cyclo(3)[1/3,1/4], 1/2", ["cyclo(3)[1/3, 1/4]", "1/2"]),
])
def test_verify_q_splits_on_commas_outside_brackets(capsys, text, qs):
    code, out = run_cli(capsys, "verify", "--identity", "qgauss", "--points", "1", "--q", text)
    assert code == 0
    assert [case["bindings"]["q"] for case in json.loads(out)["cases"]] == qs


def test_verify_with_cyclotomic_set(capsys):
    code, out = run_cli(capsys, "verify", "--identity", "sv4",
                        "--grid", "N=0..3", "--q", "1/2", "--set", "w=cyclo(3)[0, 1]")
    assert code == 0
    assert json.loads(out)["summary"]["passed"] == 4


def test_normalize(capsys):
    code, out = run_cli(capsys, "normalize", "--shift", "0,0,0,2")
    assert code == 0
    case = json.loads(out)["cases"][0]
    assert case["representative"] == "0,2,2,0"
    assert case["word"]


def test_derive_check_against_table(capsys):
    code, out = run_cli(capsys, "derive", "--shift", "0,1,1,0", "--check-against-table")
    assert code == 0
    case = json.loads(out)["cases"][0]
    assert case["table_match"] is True
    assert "num" in case["Q"] and "den" in case["R"]


def test_pipeline(capsys):
    code, out = run_cli(capsys, "pipeline", "--shift", "0,1,1,0",
                        "--point", "a=1/3", "--point", "b=1/5", "--point", "c=1/30",
                        "--point", "q=1/2", "--n-max", "3")
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 3


def test_conjecture(capsys):
    code, out = run_cli(capsys, "conjecture", "--pattern", "sum_zero",
                        "--instance", "1,1,2,0")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["conjecture", "--pattern", "sum_zero", "--instance", "1,1,2,0", "--trials", "20"],
    ["conjecture", "--pattern", "sum_zero", "--instance", "1,1,2,0", "--seed", "1"],
    ["pipeline", "--shift", "0,1,1,0", "--point", "q=1/2", "--seed", "1"],
    ["derive", "--shift", "0,1,1,0", "--seed", "1"],
], ids=["conjecture-trials", "conjecture-seed", "pipeline-seed", "derive-seed"])
def test_options_that_set_nothing_are_usage_errors(capsys, argv):
    # the family check proves admissibility, telescoping reads a fixed
    # terminating point and the series check of a derivation reads fixed
    # witness points
    assert main(argv) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_conjecture_telescopes_through_a_small_product(capsys):
    # sum_zero's numeric telescoping of (-1,-1,-2,0) at this point: |prod R|
    # falls to 5.7e-4 at N = 3, so 1 / prod R enlarges each moved series'
    # error unless it is summed at tol |prod R| / 10
    code, out = run_cli(capsys, "pipeline", "--shift=-1,-1,-2,0", "--point", "a=13/33", "--point", "b=3/10",
                        "--point", "c=1/19", "--point", "q=10/41", "--n-max", "3", "--tol", "1e-10")
    cases = json.loads(out)["cases"]
    assert code == 0
    assert [case["status"] for case in cases] == ["pass"] * 3
    assert float(cases[-1]["product"]) < 6e-4


def test_python_m_qforge_runs_the_command():
    src = os.path.dirname(os.path.dirname(qforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "qforge", "--help"], env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("usage: qforge")


@pytest.mark.parametrize("argv", [
    ["derive", "--shift", "-1,-2,-2,1"],
    ["normalize", "--shift", "-1,-2,-2,1"],
    ["pipeline", "--shift", "-1,-1,-2,0", "--point", "a=1/3", "--point", "b=1/5",
     "--point", "c=1/30", "--point", "q=1/2", "--n-max", "3"],
    ["conjecture", "--pattern", "kll", "--instance", "-1,2,3,1"],
], ids=["derive", "normalize", "pipeline", "conjecture"])
def test_shift_with_a_leading_minus(capsys, argv):
    # argparse reads -1,... on its own as an option; the plain form used
    # to exit 2 with "expected one argument"
    code, out = run_cli(capsys, *argv)
    assert code == 0
    i = argv.index("--shift" if "--shift" in argv else "--instance")
    joined = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    assert run_cli(capsys, *joined) == (code, out)


def test_exit_code_on_failure(capsys):
    # a tolerance far below reachable accuracy makes every case an error
    code, out = run_cli(capsys, "verify", "--identity", "qbinom",
                        "--points", "2", "--q", "1/2", "--tol", "1e-60")
    assert code == 1


def test_unreachable_tolerance_is_an_error_case(capsys):
    code, out = run_cli(capsys, "verify", "--identity", "qbinom",
                        "--points", "2", "--q", "1/2", "--tol", "1e-60")
    assert code == 1
    cases = json.loads(out)["cases"]
    assert [c["status"] for c in cases] == ["error", "error"]
    assert all(c["detail"].startswith("UnreachableTolerance: tol 1e-60") for c in cases)


def test_verify_mode_must_match_registry(capsys):
    assert main(["verify", "--identity", "sv1", "--grid", "M=0..0,N=0..0", "--mode", "numeric"]) == 2
    err = capsys.readouterr().err
    assert "--mode numeric" in err and "exact mode" in err
    assert main(["verify", "--identity", "qbinom", "--points", "1", "--mode", "exact"]) == 2
    err = capsys.readouterr().err
    assert "--mode exact" in err and "numeric mode" in err


def test_derive_engine_failure_is_an_error_case(capsys):
    code, out = run_cli(capsys, "derive", "--shift", "0,3,3,0", "--degree-budget", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"] == {"total": 1, "passed": 0, "failed": 0, "errored": 1}
    assert doc["cases"][0]["detail"].startswith("BudgetExceeded: ")


def test_pipeline_engine_failure_is_an_error_case(capsys):
    # x = c/(ab) = 15/7 lies outside the disk of convergence
    code, out = run_cli(capsys, "pipeline", "--shift", "0,1,1,0", "--point", "a=1/3",
                        "--point", "b=1/5", "--point", "c=1/7", "--point", "q=1/2")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"] == {"total": 1, "passed": 0, "failed": 0, "errored": 1}
    case = doc["cases"][0]
    assert case["detail"].startswith("InvalidDomain: ")
    assert case["bindings"] == {"a": "1/3", "b": "1/5", "c": "1/7", "q": "1/2"}


def test_pipeline_names_family_of_unbound_point(capsys):
    code = main(["pipeline", "--shift", "0,3,3,0", "--point", "b=8", "--point", "q=1/2",
                 "--mode", "exact"])
    assert code == 2
    err = capsys.readouterr().err
    assert "UnboundSymbol" in err and "['a', 'c']" in err
    assert "(a, b, c, c/(ab))" in err and "--family-index 0" in err


@pytest.mark.parametrize("identity,seed", [("qgauss", 1), ("qgauss", 4), ("qgauss", 7), ("qkummer", 1)])
def test_verify_points_avoid_vanishing_c_factor(capsys, identity, seed):
    # each seed used to draw a point with c*q^j = 1 (a ZeroDenominator case)
    code, out = run_cli(capsys, "verify", "--identity", identity, "--points", "25",
                        "--q", "1/2", "--seed", str(seed))
    assert code == 0
    assert json.loads(out)["summary"]["passed"] == 25


def test_verify_reports_a_seed_only_when_it_draws(capsys):
    grid = ["verify", "--identity", "sv1", "--grid", "M=0..1,N=0..1", "--q", "1/2"]
    doc = json.loads(run_cli(capsys, *grid)[1])
    assert doc["seed"] is None and "seed" not in doc["options"]
    # a seed with nothing to draw is a usage error, like --points that samples nothing
    assert main([*grid, "--seed", "3"]) == 2
    assert "ValueError: --seed draws nothing without --points" in capsys.readouterr().err
    points = ["verify", "--identity", "qgauss", "--points", "2", "--q", "1/2"]
    doc = json.loads(run_cli(capsys, *points)[1])
    assert doc["seed"] == doc["options"]["seed"] == 20250808
    assert run_cli(capsys, *points, "--seed", "20250808")[1] == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_verify_unbound_free_symbol_exits_2(capsys):
    assert main(["verify", "--identity", "sv4", "--grid", "N=0..2"]) == 2
    err = capsys.readouterr().err
    assert "UnboundSymbol" in err and "['w']" in err
    assert main(["verify", "--identity", "qgauss", "--q", "1/2"]) == 2
    err = capsys.readouterr().err
    assert "UnboundSymbol" in err and "['a', 'b', 'c']" in err


def test_verify_exhausted_sampling_exits_2(capsys):
    # a = 1/4 and q = 1/2 break |q/a| < 1 whatever b is drawn: the sampler
    # gives up, which says nothing about the identity
    assert main(["verify", "--identity", "qkummer", "--points", "1", "--q", "1/2",
                 "--set", "a=1/4"]) == 2
    err = capsys.readouterr().err
    assert "SamplingExhausted" in err and "qkummer" in err


def test_verify_sampling_budget_is_500_per_point(capsys, monkeypatch):
    checked, real = [], cli.check_constraints

    def check_constraints(record, bindings, prec):
        checked.append(bindings)
        return real(record, bindings, prec)

    monkeypatch.setattr(cli, "check_constraints", check_constraints)
    assert main(["verify", "--identity", "qkummer", "--points", "2", "--q", "1/2",
                 "--set", "a=1/4"]) == 2
    assert "could not sample admissible bindings for qkummer" in capsys.readouterr().err
    assert len(checked) == 500


def test_verify_points_checks_each_binding_once(capsys, monkeypatch):
    # the sampler's check of a binding is the one verify evaluates after,
    # and a terminating record's probe is the lhs it compares
    checked, sums, draws = [], [], []
    real_check, real_exact, real_draw = forge.check_constraints, forge.phi21_exact, cli.rand_fraction_wide

    def check_constraints(record, bindings, prec):
        checked.append(tuple(sorted(bindings.items())))
        return real_check(record, bindings, prec)

    monkeypatch.setattr(cli, "check_constraints", check_constraints)
    monkeypatch.setattr(forge, "check_constraints", check_constraints)
    monkeypatch.setattr(forge, "phi21_exact", lambda p: sums.append(p) or real_exact(p))
    monkeypatch.setattr(cli, "rand_fraction_wide", lambda rng: draws.append(1) or real_draw(rng))
    code, out = run_cli(capsys, "verify", "--identity", "qgauss", "--points", "25", "--q", "1/2", "--seed", "1")
    assert code == 0 and json.loads(out)["summary"]["passed"] == 25
    assert len(checked) == len(set(checked)) == len(draws) // 3 > 25  # rejected draws too
    checked.clear()
    code, out = run_cli(capsys, "verify", "--identity", "sv5", "--set", "N=3", "--points", "4", "--q", "1/2")
    assert code == 0 and json.loads(out)["summary"]["passed"] == 4
    assert len(checked) == len(set(checked)) == len(sums) == 4


@pytest.mark.parametrize("argv, message", [
    (["verify", "--identity", "qkummer", "--points", "-3", "--q", "1/2"], "--points must be at least 1, not -3"),
    (["verify", "--identity", "qkummer", "--points", "0", "--q", "1/2"], "--points must be at least 1, not 0"),
    (["pipeline", "--shift", "0,1,1,0", "--point", "a=1/3", "--point", "b=1/5", "--point", "c=1/30",
      "--point", "q=1/2", "--n-max", "0"], "telescoped_check needs n_max >= 1, not 0"),
], ids=["verify-points-negative", "verify-points-zero", "pipeline-n-max-zero"])
def test_counts_below_one_exit_2(capsys, argv, message):
    # each used to pass with nothing checked
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ValueError: {message}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--identity", "sv1", "--grid", "M=0..1,N=0..1", "--points", "5"],
     "--points samples nothing: --grid and --set bind every free symbol of identity 'sv1'"),
    (["verify", "--identity", "sv1", "--grid", "M=0..1,N=0..1", "--set", "q=1/3"],
     "q is bound by --q, not by --grid or --set"),
    (["verify", "--identity", "sv1", "--grid", "M=0..1,N=0..1,q=0..1"], "q is bound by --q, not by --grid or --set"),
    (["verify", "--identity", "sv1", "--grid", "M=0..1,N=0..1", "--set", "N=3"], "['N'] bound by both --grid and --set"),
    (["verify", "--identity", "sv1", "--grid", "M=0..1,N=0..1,M=2..3"], "--grid binds M twice"),
    (["verify", "--identity", "sv1", "--grid", "M=0..1", "--set", "N=1", "--set", "N=2"], "--set binds N twice"),
    (["verify", "--identity", "sv1", "--grid", "M=2..1,N=0..1"], "--grid range 'M=2..1' is empty"),
    (["pipeline", "--shift", "0,1,1,0", "--point", "a=1/3", "--point", "a=1/4", "--point", "b=1/5",
      "--point", "c=1/30", "--point", "q=1/2"], "--point binds a twice"),
    (["verify", "--identity", "sv1", "--grid", "M=0..1,N=0..1", "--set", "z=3"],
     "['z'] bound by --grid or --set: identity 'sv1' has the free symbols ['M', 'N']"),
], ids=["points-with-nothing-free", "set-q", "grid-q", "set-and-grid", "grid-twice", "set-twice",
        "empty-range", "point-twice", "symbol-not-free"])
def test_bindings_it_would_drop_exit_2(capsys, argv, message):
    # each used to report with the binding dropped or overridden
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ValueError: {message}" in captured.err


def test_public_names_resolve():
    namespace = {}
    exec("from qforge import *", namespace)
    assert all(hasattr(qforge, name) for name in qforge.__all__)
    assert set(qforge.__all__) <= namespace.keys()


def test_commands_never_import_sympy():
    code = """
import contextlib
import io
import sys
from qforge.cli import main

point = ["--point", "a=1/3", "--point", "b=1/5", "--point", "c=1/30", "--point", "q=1/2"]
commands = [
    ["derive", "--shift", "0,1,1,0"],
    ["derive", "--shift", "0,1,1,0", "--check-against-table"],
    ["normalize", "--shift", "0,0,0,2"],
    ["verify", "--identity", "sv1", "--grid", "M=0..2,N=0..2", "--q", "1/2"],
    ["verify", "--identity", "qgauss", "--points", "3", "--q", "1/2"],
    ["pipeline", "--shift", "0,1,1,0", *point, "--n-max", "3"],
    ["conjecture", "--pattern", "sum_zero", "--instance", "1,1,2,0"],
    ["conjecture", "--pattern", "oll_root", "--instance", "0,4,4,0"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
print(codes, "sympy" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(qforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0] False"


# tol 1e-40 is below the rounding error of 113-bit arithmetic at this
# point (UnreachableTolerance, an error case), and above that of 200-bit
QGAUSS_1E40 = ["verify", "--identity", "qgauss", "--set", "a=1/2", "--set", "b=1/3",
               "--set", "c=1/10", "--q", "1/3", "--tol", "1e-40"]


@pytest.mark.parametrize("value", ["abc", "32"])
def test_bad_precision_variable_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("QFORGE_PRECISION", value)
    assert main(QGAUSS_1E40) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad QFORGE_PRECISION" in captured.err


def test_precision_variable_sets_the_default(capsys, monkeypatch):
    monkeypatch.delenv("QFORGE_PRECISION", raising=False)
    code, out = run_cli(capsys, *QGAUSS_1E40)
    assert code == 1 and "UnreachableTolerance" in json.loads(out)["cases"][0]["detail"]
    monkeypatch.setenv("QFORGE_PRECISION", "200")
    code, out = run_cli(capsys, *QGAUSS_1E40)
    assert code == 0 and json.loads(out)["summary"]["passed"] == 1


def test_precision_variable_does_not_outlive_the_run(capsys, monkeypatch):
    # the variable sets the precision of one CLI run, not of later library calls
    monkeypatch.setenv("QFORGE_PRECISION", "200")
    assert main(QGAUSS_1E40) == 0
    capsys.readouterr()
    with pytest.raises(UnreachableTolerance, match="of 113-bit arithmetic"):
        forge.verify_identity("qgauss", {"a": F(1, 2), "b": F(1, 3), "c": F(1, 10), "q": F(1, 3)}, tol=1e-40)


def test_usage_error_exit_2(capsys):
    assert main(["verify"]) == 2  # missing --identity
    assert main(["bogus"]) == 2
    assert main(["verify", "--identity", "nonexistent"]) == 2


def test_report_round_trip(capsys):
    code, out = run_cli(capsys, "verify", "--identity", "sv1",
                        "--grid", "M=0..1,N=0..1", "--q", "1/2")
    doc = json.loads(out)
    rep = ReportDocument.from_json(doc)
    assert rep.to_json() == doc


def test_deterministic_reports(capsys):
    args = ["verify", "--identity", "qgauss", "--points", "4", "--q", "1/2", "--seed", "7"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    _, out3 = run_cli(capsys, *args[:-1], "8")
    assert out3 != out1


def test_text_format(capsys):
    code, out = run_cli(capsys, "normalize", "--shift", "1,2,1,-1", "--format", "text")
    assert code == 0
    assert "representative=1,2,1,-1" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, "normalize", "--shift", "0,1,1,0", "--output", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["cases"][0]["representative"] == "0,1,1,0"


def test_parser_builds():
    parser = build_parser()
    ns = parser.parse_args(["verify", "--identity", "sv1", "--grid", "M=0..1"])
    assert ns.command == "verify"


def test_tol_must_be_positive(capsys):
    assert main(["verify", "--identity", "sv1", "--grid", "M=0..0,N=0..0",
                 "--q", "1/2", "--tol", "-1"]) == 2


def test_registry_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(build_default_registry()))
    assert load_registry(str(path)) == default_registry()
    args = ["verify", "--identity", "sv1", "--grid", "M=0..2,N=0..2", "--q", "1/2"]
    code, builtin = run_cli(capsys, *args)
    code_file, from_file = run_cli(capsys, *args, "--registry", str(path))
    assert code == code_file == 0
    assert json.loads(from_file)["cases"] == json.loads(builtin)["cases"]


@pytest.mark.parametrize("mode", ["Exact", "NUMERIC", "symbolic", ""])
def test_registry_file_with_unknown_mode_is_refused(tmp_path, capsys, mode):
    # a mode that is neither exact nor numeric used to run sv1 numerically
    # and report it under the mode given
    doc = build_default_registry()
    sv1 = next(rec for rec in doc["identities"] if rec["id"] == "sv1")
    sv1["mode"] = mode
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"identity 'sv1': unknown mode '{mode}'"):
        load_registry(str(path))
    assert main(["verify", "--identity", "sv1", "--grid", "M=0..0,N=0..0",
                 "--registry", str(path)]) == 2
    assert f"unknown mode '{mode}'" in capsys.readouterr().err


def _sv1(doc: dict) -> dict:
    return next(rec for rec in doc["identities"] if rec["id"] == "sv1")


# a malformed registry file: how to break the built-in document, and the
# record and field the refusal names
MALFORMED_REGISTRIES = {
    "no-free": (lambda doc: _sv1(doc).pop("free"), "identity 'sv1': missing 'free'"),
    "no-lhs-x": (lambda doc: _sv1(doc)["lhs"].pop("x"), "identity 'sv1' lhs: missing 'x'"),
    "identities-an-object": (lambda doc: doc.update(identities={"sv1": _sv1(doc)}),
                             "registry: 'identities' must be a list of records"),
    "duplicate-id": (lambda doc: doc["identities"].append(dict(_sv1(doc), mode="exact")),
                     "identity 'sv1': duplicate id"),
    "free-not-strings": (lambda doc: _sv1(doc).update(free=["M", 3]),
                         "identity 'sv1': 'free' must be a list of strings"),
    "unknown-constraint": (lambda doc: _sv1(doc)["constraints"].append({"type": "positive", "sym": "M"}),
                           "identity 'sv1': unknown constraint type 'positive'"),
    "constraint-without-field": (lambda doc: _sv1(doc)["constraints"][0].pop("sym"),
                                 "identity 'sv1' constraint nonneg_int: missing 'sym'"),
    "expression-without-field": (lambda doc: _sv1(doc).update(rhs={"kind": "qpow"}),
                                 "identity 'sv1': bad expression in 'rhs': KeyError: 'exp'"),
    "constraint-field-type": (lambda doc: next(r for r in doc["identities"] if r["id"] == "sv4")
                              ["constraints"][1].update(order="3"),
                              "identity 'sv4' constraint primitive_root: 'order' must be int, not str"),
}


@pytest.mark.parametrize("case", MALFORMED_REGISTRIES.values(), ids=MALFORMED_REGISTRIES)
def test_malformed_registry_file_is_a_usage_error(tmp_path, capsys, case):
    # at the parse, not as a KeyError or TypeError traceback (exit 1), a
    # silently replaced record or a constraint that always fails
    breaks, message = case
    doc = build_default_registry()
    breaks(doc)
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_registry(str(path))
    assert str(exc.value) == message
    assert main(["verify", "--identity", "sv1", "--grid", "M=0..0,N=0..0",
                 "--registry", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_registry_file_with_unknown_node_exits_2(tmp_path, capsys):
    doc = build_default_registry()
    sv1 = next(rec for rec in doc["identities"] if rec["id"] == "sv1")
    sv1["rhs"] = {"kind": "bogus"}
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--identity", "sv1", "--grid", "M=0..0,N=0..0",
                 "--registry", str(path)]) == 2
    assert "bad expression node" in capsys.readouterr().err
