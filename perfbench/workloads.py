"""The three workloads: inputs made from a seed, the timed cases, and the
checks of every output against the committed references.

`build(name, seed)` does the workload's whole set-up (loading
the committed inputs and the one-time lazy set-up every invocation of
that kind pays) and returns a `Workload`.  Each case is a thunk calling
one public qforge entry point; it returns (status, output) with status
"pass" or "fail".  The cases call qforge through module attributes
(`forge.verify_identity`, not a name bound here), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

import spec
from qforge import cli, families, forge, poly, relations, symmetry
from qforge.exact import ExactScalar
from qforge.relations import ShiftVector, ThreeTermRelation


@dataclass
class Workload:
    cases: list  # [(key, thunk)]
    check: Callable[[list], list]  # results -> mismatch descriptions


def build(name: str, seed: int) -> Workload:
    cli.build_parser().parse_args(spec.CLI_ARGS[name])
    builder = {"numeric-verify": numeric_verify, "derive": derive, "families": family_checks}[name]
    return builder(seed)


def load_ref(name: str) -> dict:
    with open(spec.REFS / f"{name}.json") as fh:
        return json.load(fh)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# -- numeric-verify -------------------------------------------------------------------


def select_points(pool: list, seed: int) -> list:
    """The spec.TAKE_ALL points of most reference work, plus one point from
    each block of spec.BLOCK of the others in order of work, shuffled.
    No point repeats within a run."""
    ordered = sorted(pool, key=lambda p: (-p["work"], p["id"]))
    chosen, rest = ordered[:spec.TAKE_ALL], ordered[spec.TAKE_ALL:]
    rng = random.Random(seed)
    chosen += [rng.choice(rest[i:i + spec.BLOCK]) for i in range(0, len(rest), spec.BLOCK)]
    rng.shuffle(chosen)
    return chosen


def point_bindings(point: dict) -> dict:
    return {k: Fraction(v) for k, v in point["bindings"].items()}


def numeric_verify(seed: int) -> Workload:
    forge.default_registry()
    pool = load_ref("numeric_pool")["points"]
    points = select_points(pool, seed)

    def case(point):
        ident, bindings = point["identity"], point_bindings(point)

        def run():
            res = forge.verify_identity(ident, bindings, tol=spec.NUMERIC_TOL, prec=spec.NUMERIC_PREC)
            return res.status, res.lhs

        return point["id"], run

    refs = {p["id"]: p for p in points}

    def check(results):
        bad = []
        with mpmath.workprec(spec.REF_PREC):
            for key, status, output, *_ in results:
                ref = refs[key]["lhs_ref"]
                if status == "error":
                    continue  # counted in fail_ratio; nothing reported to compare
                if ref is None:
                    bad.append(f"{key}: returned lhs {output} where the series is undefined")
                    continue
                lhs, want = mpmath.mpmathify(output), mpmath.mpf(ref)
                if not abs(lhs - want) <= spec.NUMERIC_TOL * (1 + abs(want)):
                    bad.append(f"{key}: lhs {output} differs from reference {ref}")
        return bad

    return Workload([case(p) for p in points], check)


# -- derive ---------------------------------------------------------------------------


def relation_text(rel) -> str:
    return json.dumps(rel.to_json(), sort_keys=True)


def derive(seed: int) -> Workload:
    poly._sym_ring(poly.RELATION_VARS)  # the lazily built sympy ring
    symmetry.lambda_group()
    refs = load_ref("derive")["shifts"]
    rng = random.Random(seed)
    order = list(spec.DERIVE_SHIFTS)
    rng.shuffle(order)

    def case(shift):
        key = spec.shift_text(shift)
        member = ShiftVector.parse(rng.choice(refs[key]["orbit"]))

        def run():
            # `qforge normalize` on a random orbit member, then `qforge derive`
            rep, _ = symmetry.canonical_representative(member)
            orbit = symmetry.orbit_enumerate(member)
            rel = relations.qr_derive(ShiftVector(*shift))
            return "pass", (rep, orbit, rel)

        return key, run

    def check(results):
        bad = []
        for key, status, output, *_ in results:
            if status == "error":
                continue
            rep, orbit, rel = output
            ref = refs[key]
            if str(rep) != ref["representative"]:
                bad.append(f"{key}: representative {rep}, expected {ref['representative']}")
            if sorted(str(s) for s in orbit) != ref["orbit"]:
                bad.append(f"{key}: orbit differs from reference")
            if relation_text(rel) != json.dumps(ref["relation"], sort_keys=True):
                bad.append(f"{key}: derived relation JSON differs from reference")
            if ref["table"]:
                table = relations.qr_lookup(rel.shift)
                if not (table.Q == rel.Q and table.R == rel.R):
                    bad.append(f"{key}: derived relation differs from qr_lookup")
        return bad

    return Workload([case(s) for s in order], check)


# -- families -------------------------------------------------------------------------


def family_cases(seed: int, rels: dict) -> list:
    """(key, ref_key, thunk) of every families case.  `ref_key` names the
    committed expected output; check_family cases share one per family."""
    rng = random.Random(seed)
    out = []
    for inst in spec.FAMILY_INSTANCES:
        key = spec.shift_text(inst)
        shift, rel = ShiftVector(*inst), rels[key]
        for fam in families.solution_families(shift):
            ref_key = f"check_family {key} {fam.name}"
            for _ in range(spec.FAMILY_SEEDS):
                case_seed = rng.randrange(2**31)

                def run(shift=shift, fam=fam, rel=rel, case_seed=case_seed):
                    ok = forge.check_family(shift, fam, n_max=spec.FAMILY_N_MAX,
                                            trials=spec.FAMILY_TRIALS, seed=case_seed,
                                            relation=rel)
                    return _status(ok), ok

                out.append((f"{ref_key} seed={case_seed}", ref_key, run))

    q = Fraction(spec.TELESCOPE_Q)
    kummer = (ShiftVector(*spec.KUMMER_SHIFT), families.family_qkummer(),
              rels[spec.shift_text(spec.KUMMER_SHIFT)])
    root = (ShiftVector(*spec.ROOT_SHIFT), families.family_root_of_unity(spec.ROOT_SHIFT[1]),
            rels[spec.shift_text(spec.ROOT_SHIFT)])
    displays = []
    for n in range(1, spec.TELESCOPE_N + 1):
        for b_exp in (-2 * n, -2 * n - 1):
            displays.append((f"telescope kummer N={n} b=q^{b_exp}", kummer, n, {"a": Fraction(3), "b": q**b_exp, "q": q}))
        for j in (0, 1, 2):
            displays.append((f"telescope root N={n} b=q^{-3 * n - j}", root, n, {"b": q ** (-3 * n - j), "q": q}))
    for key, (shift, fam, rel), n, point in displays:
        def run(shift=shift, fam=fam, rel=rel, n=n, point=point):
            res = forge.telescoped_check(shift, fam, n, point, mode="exact", relation=rel)
            return _status(res.passed), res.to_json()

        out.append((key, key, run))

    zeta = ExactScalar.zeta(spec.SV5_ORDER)
    for n in range(spec.SV5_N_MAX + 1):
        def run(n=n):
            res = forge.verify_identity("sv5", {"a": zeta, "N": n, "q": q})
            return res.status, res.to_json()

        key = f"sv5 a=zeta_{spec.SV5_ORDER} N={n}"
        out.append((key, key, run))

    def cauchy():
        ok = forge.sv5_cauchy_check(zeta, spec.SV5_N_MAX)
        return _status(ok), ok

    key = f"sv5_cauchy_check a=zeta_{spec.SV5_ORDER} N<={spec.SV5_N_MAX}"
    out.append((key, key, cauchy))
    return out


def load_relations() -> dict:
    shifts = load_ref("derive")["shifts"]
    return {key: ThreeTermRelation.from_json(entry["relation"]) for key, entry in shifts.items()}


def family_checks(seed: int) -> Workload:
    forge.default_registry()
    rels = load_relations()
    expected = load_ref("families")["cases"]
    listed = family_cases(seed, rels)
    random.Random(seed).shuffle(listed)
    ref_of = {key: ref_key for key, ref_key, _ in listed}

    def check(results):
        bad = []
        for key, status, output, *_ in results:
            want = expected.get(ref_of[key])
            if want is None:
                bad.append(f"{key}: no committed reference")
            elif status != "error" and (status != want["status"] or output != want["output"]):
                bad.append(f"{key}: outcome {status} differs from reference {want['status']}")
        return bad

    return Workload([(key, run) for key, _, run in listed], check)
