"""Command-line surface: verify identities over grids, derive and print
relations, normalize shifts, run telescoping pipelines and conjecture
checks, with deterministic JSON or text reports."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field

from . import __version__
from .approx import DEFAULT_PREC
from .errors import ConstraintViolated, QForgeError, UnboundSymbol
from .exact import parse_scalar
from .families import solution_families
from .forge import (
    _scalar_text,
    _verify_checked,
    check_constraints,
    conjecture_check,
    default_registry,
    load_registry,
    telescoped_check,
    verify_identity,
)
from .relations import (
    DEFAULT_DEGREE_BUDGET,
    DEFAULT_SEED,
    ShiftVector,
    draw_admissible,
    qr_derive,
    qr_lookup,
    rand_fraction_wide,
)
from .symmetry import apply_word_shift, canonical_representative

USAGE_EXIT = 2
_SHIFT_OPTIONS = ("--shift", "--instance")  # the K,L,M,N options


@dataclass
class ReportDocument:
    command: str
    options: dict
    seed: int | None
    cases: list = field(default_factory=list)
    version: str = __version__

    def summary(self) -> dict:
        passed = sum(1 for c in self.cases if c.get("status") == "pass")
        failed = sum(1 for c in self.cases if c.get("status") == "fail")
        errored = sum(1 for c in self.cases if c.get("status") == "error")
        return {"total": len(self.cases), "passed": passed, "failed": failed, "errored": errored}

    def to_json(self) -> dict:
        return {
            "command": self.command, "options": self.options, "seed": self.seed,
            "version": self.version, "cases": self.cases, "summary": self.summary(),
        }

    @staticmethod
    def from_json(doc: dict) -> "ReportDocument":
        rep = ReportDocument(doc["command"], doc["options"], doc["seed"],
                             list(doc["cases"]), doc["version"])
        if rep.summary() != doc["summary"]:
            raise ValueError("summary does not match cases")
        return rep

    def render_text(self) -> str:
        lines = [f"qforge {self.command} (v{self.version})"]
        for i, case in enumerate(self.cases):
            status = case.get("status", "-")
            body = ", ".join(f"{k}={v}" for k, v in case.items() if k != "status")
            lines.append(f"[{i:3d}] {status:5s} {body}")
        s = self.summary()
        lines.append(
            f"total {s['total']}  passed {s['passed']}  failed {s['failed']}  errored {s['errored']}"
        )
        return "\n".join(lines)

    def exit_code(self) -> int:
        s = self.summary()
        return 0 if s["failed"] == 0 and s["errored"] == 0 else 1


def _parse_grid(text: str) -> dict[str, range]:
    out = {}
    for part in text.split(","):
        sym, _, rng = part.partition("=")
        lo, _, hi = rng.partition("..")
        if not sym or not hi:
            raise ValueError(f"bad grid component {part!r}; want sym=lo..hi")
        sym, values = sym.strip(), range(int(lo), int(hi) + 1)
        if sym in out:
            raise ValueError(f"--grid binds {sym} twice")
        if not values:
            raise ValueError(f"--grid range {part!r} is empty")
        out[sym] = values
    return out


def _parse_assignments(items, option: str) -> dict:
    out = {}
    for item in items or []:
        sym, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad assignment {item!r}; want sym=value")
        sym = sym.strip()
        if sym in out:
            raise ValueError(f"{option} binds {sym} twice")
        out[sym] = parse_scalar(value.strip())
    return out


def _case_from_exception(exc: Exception, bindings: dict) -> dict:
    return {
        "status": "error",
        "bindings": {k: _scalar_text(v) for k, v in bindings.items()},
        "detail": f"{type(exc).__name__}: {exc}",
    }


def _run_verify(opts: dict, prec: int) -> ReportDocument:
    registry = load_registry(opts.get("registry")) if opts.get("registry") else default_registry()
    identity = opts["identity"]
    if identity not in registry:
        raise ValueError(f"unknown identity {identity!r}")
    record = registry[identity]
    if opts.get("mode") and opts["mode"] != record.mode:
        raise ValueError(f"--mode {opts['mode']} disagrees with the registry: "
                         f"identity {identity!r} is verified in {record.mode} mode")
    tol = opts["tol"]
    if not tol > 0:
        raise ValueError("tol must be positive")
    grid = _parse_grid(opts["grid"]) if opts.get("grid") else {}
    fixed = _parse_assignments(opts.get("set"), "--set")
    if both := sorted(grid.keys() & fixed.keys()):
        raise ValueError(f"{both} bound by both --grid and --set")
    if "q" in grid or "q" in fixed:
        raise ValueError("q is bound by --q, not by --grid or --set")
    if extra := sorted((grid.keys() | fixed.keys()) - set(record.free)):
        raise ValueError(f"{extra} bound by --grid or --set: identity {identity!r} "
                         f"has the free symbols {list(record.free)}")
    # split on the commas outside [...], so that cyclo(n)[c0, c1] is one value
    qs = [parse_scalar(t) for t in re.split(r",(?![^\[]*\])", opts.get("q") or "1/2")]
    n_points = opts.get("points")
    if n_points is not None and n_points < 1:
        raise ValueError(f"--points must be at least 1, not {n_points}")
    if opts["seed"] is not None and not n_points:
        raise ValueError("--seed draws nothing without --points")

    free_rest = [s for s in record.free if s not in grid and s not in fixed]
    if free_rest and not n_points:
        raise UnboundSymbol(f"identity {identity!r} leaves {free_rest} unbound: "
                            f"bind them with --grid or --set, or sample them with --points")
    if n_points and not free_rest:
        raise ValueError(f"--points samples nothing: --grid and --set bind every free "
                         f"symbol of identity {identity!r}")

    if n_points:  # the seed is reported only where something is drawn
        opts = {**opts, "seed": DEFAULT_SEED if opts["seed"] is None else opts["seed"]}
    rng = random.Random(opts["seed"])
    report = ReportDocument("verify", _echo_options(opts), opts["seed"])
    grid_syms = sorted(grid)
    cells = list(itertools.product(*(grid[s] for s in grid_syms))) or [()]
    for qv in qs:
        for cell in cells:
            base = dict(fixed)
            base.update({s: v for s, v in zip(grid_syms, cell)})
            base["q"] = qv.as_rational() if qv.is_rational() else qv
            if free_rest:
                for _ in range(n_points):
                    bindings, probed = _sample_bindings(record, base, free_rest, rng, prec)
                    report.cases.append(_verify_one(bindings, _verify_checked, record, bindings, probed, tol, prec))
            else:
                report.cases.append(_verify_one(base, verify_identity, identity, base, tol, registry, prec))
    return report


def _sample_bindings(record, base: dict, free_rest, rng, prec: int) -> tuple:
    """Bindings that pass check_constraints at prec bits, and what it returned."""
    def draw():
        bindings = {**base, **{s: rand_fraction_wide(rng) for s in free_rest}}
        try:
            return bindings, check_constraints(record, bindings, prec)
        except ConstraintViolated:
            return None

    return next(draw_admissible(draw, 1, 500, f"bindings for {record.id}"))


def _verify_one(bindings: dict, verify, *args) -> dict:
    """The case of verify(*args) at bindings; an engine failure is an error case."""
    try:
        return verify(*args).to_json()
    except QForgeError as exc:
        return _case_from_exception(exc, bindings)


def _run_derive(opts: dict) -> ReportDocument:
    shift = ShiftVector.parse(opts["shift"])
    report = ReportDocument("derive", _echo_options(opts), None)
    case = {"status": "pass", "shift": str(shift)}
    try:
        rel = qr_derive(shift, degree_budget=opts["degree_budget"])
        case.update(Q=rel.Q.to_json(), R=rel.R.to_json())
        if opts["check_against_table"]:
            table = qr_lookup(shift)
            ok = table.Q == rel.Q and table.R == rel.R
            case["status"] = "pass" if ok else "fail"
            case["table_match"] = ok
    except QForgeError as exc:
        case["status"] = "error"
        case["detail"] = f"{type(exc).__name__}: {exc}"
    report.cases.append(case)
    return report


def _run_normalize(opts: dict) -> ReportDocument:
    shift = ShiftVector.parse(opts["shift"])
    report = ReportDocument("normalize", _echo_options(opts), None)
    rep, word = canonical_representative(shift)
    consistent = apply_word_shift(word, shift) == rep
    report.cases.append({
        "status": "pass" if consistent else "fail",
        "shift": str(shift),
        "representative": str(rep),
        "word": [f"s{g}" for g in word],
    })
    return report


def _run_pipeline(opts: dict, prec: int) -> ReportDocument:
    shift = ShiftVector.parse(opts["shift"])
    report = ReportDocument("pipeline", _echo_options(opts), None)
    fams = solution_families(shift)
    if not fams:
        raise ValueError(f"no solution family registered for shift {shift}")
    idx = opts["family_index"]
    if not 0 <= idx < len(fams):
        raise ValueError(f"family index {idx} out of range ({len(fams)} families)")
    fam = fams[idx]
    if not opts["tol"] > 0:
        raise ValueError("tol must be positive")
    point_scalars = _parse_assignments(opts["point"], "--point")
    point = {}
    for k, v in point_scalars.items():
        point[k] = v.as_rational() if v.is_rational() else v
    needed = [s for s in fam.free_symbols if s not in fam.fixed_bindings] + ["q"]
    missing = [s for s in needed if s not in point]
    if missing:
        raise UnboundSymbol(f"--point leaves {missing} unbound: family {fam.name} "
                            f"(--family-index {idx}) of shift {shift} needs {needed}")
    try:
        run = telescoped_check(shift, fam, opts["n_max"], point, tol=opts["tol"], mode=opts["mode"], prec=prec)
    except QForgeError as exc:
        report.cases.append(_case_from_exception(exc, point))
        return report
    for step in run.steps:
        case = step.to_json()
        case["status"] = "pass" if step.ok else "fail"
        report.cases.append(case)
    return report


def _run_conjecture(opts: dict) -> ReportDocument:
    report = ReportDocument("conjecture", _echo_options(opts), None)
    rep = conjecture_check(opts["pattern"], ShiftVector.parse(opts["instance"]))
    for step in rep.steps:
        case = step.to_json()
        case["status"] = step.status
        report.cases.append(case)
    if rep.trivial:
        report.cases.append({"status": "pass", "name": "trivial_flag",
                             "detail": "telescoped value is identically 1"})
    return report


def _echo_options(opts: dict) -> dict:
    return {k: v for k, v in sorted(opts.items()) if v is not None}


# each runner takes (opts, prec); derive, normalize and conjecture are exact
_RUNNERS = {
    "verify": _run_verify,
    "derive": lambda opts, prec: _run_derive(opts),
    "normalize": lambda opts, prec: _run_normalize(opts),
    "pipeline": _run_pipeline,
    "conjecture": lambda opts, prec: _run_conjecture(opts),
}


def execute(command: str, options: dict, prec: int) -> tuple[ReportDocument, int]:
    """Run one command on its parsed options, its numerics at prec bits;
    exit code 0 iff every case passes."""
    runner = _RUNNERS.get(command)
    if runner is None:
        raise ValueError(f"unknown command {command!r}")
    report = runner(options, prec)
    return report, report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", help="write the report to this path instead of stdout")
    parser = argparse.ArgumentParser(
        prog="qforge",
        description="Exact and numeric verification engine for 2phi1 "
                    "three-term relations and basic hypergeometric identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="verify a registered identity over a grid or random points")
    p.add_argument("--identity", required=True)
    p.add_argument("--grid", help="integer ranges, e.g. M=0..6,N=0..6")
    p.add_argument("--q", help="comma-separated q values, e.g. 1/2,2/3 or 1/2,cyclo(4)[0, 1/2]")
    p.add_argument("--set", action="append", metavar="SYM=VALUE",
                   help="fix a symbol to an exact scalar (repeatable)")
    p.add_argument("--points", type=int, help="random points per cell for unbound symbols")
    p.add_argument("--mode", choices=("exact", "numeric"),
                   help="the identity's registry mode; a different mode is a usage error")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, help=f"seed of the --points draws (default {DEFAULT_SEED})")
    p.add_argument("--registry", help="path to an identity registry JSON file")

    p = sub.add_parser("derive", parents=[common], help="derive the (Q, R) pair for a shift vector")
    p.add_argument("--shift", required=True, metavar="K,L,M,N")
    p.add_argument("--degree-budget", dest="degree_budget", type=int, default=DEFAULT_DEGREE_BUDGET)
    p.add_argument("--check-against-table", dest="check_against_table", action="store_true")

    p = sub.add_parser("normalize", parents=[common], help="canonical orbit representative of a shift vector")
    p.add_argument("--shift", required=True, metavar="K,L,M,N")

    p = sub.add_parser("pipeline", parents=[common], help="run the telescoping pipeline at a point")
    p.add_argument("--shift", required=True, metavar="K,L,M,N")
    p.add_argument("--family-index", dest="family_index", type=int, default=0)
    p.add_argument("--n-max", dest="n_max", type=int, default=5)
    p.add_argument("--point", action="append", metavar="SYM=VALUE", required=True)
    p.add_argument("--mode", choices=("exact", "numeric"), default="numeric")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("conjecture", parents=[common], help="instance-level conjecture pattern checks")
    p.add_argument("--pattern", required=True)
    p.add_argument("--instance", required=True, metavar="K,L,M,N")

    return parser


def _attach_shift_values(argv: list) -> list:
    """argv with `--shift V` and `--instance V` written `--shift=V` when V
    starts with a minus: argparse reads -1,-2,-2,1 on its own as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _SHIFT_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _attach_shift_values(sys.argv[1:] if argv is None else argv)
    try:  # the run's precision, read once; an unset or empty variable means DEFAULT_PREC
        prec = int(os.environ.get("QFORGE_PRECISION") or DEFAULT_PREC)
        if prec < 64:
            raise ValueError("precision must be at least 64 bits")
    except ValueError as exc:
        print(f"qforge: bad QFORGE_PRECISION: {exc}", file=sys.stderr)
        return USAGE_EXIT
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    opts = {k: v for k, v in vars(ns).items() if k not in ("command", "format", "output")}
    try:
        report, code = execute(ns.command, opts, prec)
    except (QForgeError, ValueError) as exc:
        print(f"qforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if ns.format == "json":
        out = json.dumps(report.to_json(), indent=1, sort_keys=True)
    else:
        out = report.render_text()
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
