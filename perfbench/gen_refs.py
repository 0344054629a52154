"""Rebuild the benchmark's committed references from their fixed seeds.

    python3 perfbench/gen_refs.py           # rebuild; exit 1 if refs/ differs
    python3 perfbench/gen_refs.py --write   # rebuild and overwrite refs/

refs/numeric_pool.json  the numeric-verify point pool.  Each point carries
    a reference left-hand side at spec.REF_PREC bits from a route
    independent of qforge: mpmath.qhyper, or direct summation where qhyper
    raises NoConvergence, cross-checked against direct summation.  `work`
    is the number of series terms the direct summation needed; the runs
    use it only to stratify their draws.
refs/derive.json  for each derive shift the expected
    ThreeTermRelation.to_json, its canonical representative and orbit.
refs/families.json  the expected outcome (and, where deterministic, the
    full output) of every families case.

The reference route (qhyper plus a direct-summation cross-check at
spec.REF_PREC bits) is far slower per point than a run can afford, which
is why it runs here and never inside a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

import mpmath

import spec

sys.path.insert(0, str(spec.SRC))

from qforge import forge, relations, symmetry  # noqa: E402
from qforge.errors import ConstraintViolated  # noqa: E402
from qforge.relations import ShiftVector, rand_fraction_wide  # noqa: E402

import workloads  # noqa: E402

SCAN = 64  # exponents scanned for exact termination and vanishing (c;q) factors


def lhs_params(identity: str, b: dict):
    """(a, b, c, q, x) of the identity's left-hand 2phi1, as Fractions."""
    q = b["q"]
    if identity == "qbinom":
        return b["a"], Fraction(0), Fraction(0), q, b["x"]
    if identity == "qbinom2":
        return b["a"], -b["a"], -q, q, b["x"]
    if identity == "qgauss":
        return b["a"], b["b"], b["c"], q, b["c"] / (b["a"] * b["b"])
    if identity == "qkummer":
        return b["a"], b["b"], b["b"] * q / b["a"], q, -q / b["a"]
    raise ValueError(identity)


def _mpf(v: Fraction):
    return mpmath.mpf(v.numerator) / v.denominator


def reference_lhs(identity: str, bindings: dict):
    """(reference value text or None, route, work)."""
    a, b, c, q, x = lhs_params(identity, bindings)
    term_limit = None
    for r in range(SCAN):
        if a * q**r == 1 or b * q**r == 1:
            term_limit = r
            break
    if any(c * q**j == 1 for j in range(term_limit if term_limit is not None else SCAN)):
        return None, "undefined: a (c;q) factor vanishes", 0
    with mpmath.workprec(spec.REF_PREC + 32):
        direct, work = _direct_sum(*(_mpf(v) for v in (a, b, c, q, x)), term_limit)
    with mpmath.workprec(spec.REF_PREC):
        try:
            value = mpmath.qhyper([_mpf(a), _mpf(b)], [_mpf(c)], _mpf(q), _mpf(x))
            route = "qhyper"
        except mpmath.libmp.NoConvergence:
            value, route = +direct, "direct"
        if not abs(value - direct) <= mpmath.mpf(2) ** (40 - spec.REF_PREC) * (1 + abs(direct)):
            raise RuntimeError(f"qhyper and direct summation disagree for {identity} {bindings}")
        return mpmath.nstr(value, 50), route, work


def _direct_sum(a, b, c, q, x, term_limit):
    eps = mpmath.mpf(2) ** (-(mpmath.mp.prec + 4))
    total = term = mpmath.mpf(1)
    aq, bq, cq, qq = a, b, c, mpmath.mpf(1)
    small, i = 0, 0
    while True:
        i += 1
        if term_limit is not None and i > term_limit:
            return total, i
        if i > 200000:
            raise RuntimeError("direct summation did not converge")
        qq *= q
        term = term * (1 - aq) * (1 - bq) / ((1 - qq) * (1 - cq)) * x
        total += term
        aq, bq, cq = aq * q, bq * q, cq * q
        if term_limit is None:
            small = small + 1 if abs(term) <= eps * abs(total) else 0
            if small >= 3:
                return total, i


def numeric_pool() -> dict:
    registry = forge.default_registry()
    rng = random.Random(spec.POOL_SEED)
    points = []
    for ident in spec.NUMERIC_IDS:
        record = registry[ident]
        for q_text in spec.Q_POOL:
            done = attempts = 0
            while done < spec.POOL_PER_STRATUM:
                attempts += 1
                if attempts > 2000:
                    raise RuntimeError(f"no admissible points for {ident} at q={q_text}")
                bindings = {"q": Fraction(q_text)}
                for s in record.free:
                    bindings[s] = rand_fraction_wide(rng)
                try:
                    forge.check_constraints(record, bindings)
                except ConstraintViolated:
                    continue
                ref, route, work = reference_lhs(ident, bindings)
                points.append({
                    "id": f"{ident}-{len(points):03d}",
                    "identity": ident,
                    "bindings": {k: str(v) for k, v in bindings.items()},
                    "lhs_ref": ref, "route": route, "work": work,
                })
                done += 1
    return {"tol": spec.NUMERIC_TOL, "ref_prec": spec.REF_PREC, "points": points}


def derive_refs() -> dict:
    shifts = {}
    for shift in spec.DERIVE_SHIFTS:
        rel = relations.qr_derive(ShiftVector(*shift))
        rep, _ = symmetry.canonical_representative(shift)
        shifts[spec.shift_text(shift)] = {
            "relation": rel.to_json(),
            "representative": str(rep),
            "orbit": sorted(str(s) for s in symmetry.orbit_enumerate(shift)),
            "table": shift in spec.TABLE_SHIFTS,
        }
    return {"shifts": shifts}


def families_refs(derive_doc: dict) -> dict:
    rels = {k: relations.ThreeTermRelation.from_json(v["relation"])
            for k, v in derive_doc["shifts"].items()}
    cases = {}
    for key, ref_key, run in workloads.family_cases(spec.POOL_SEED, rels):
        status, output = run()
        entry = {"status": status, "output": output}
        if cases.setdefault(ref_key, entry) != entry:
            raise RuntimeError(f"{key}: outcome depends on the sampled points")
    return {"cases": cases}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="overwrite refs/ instead of comparing")
    args = ap.parse_args(argv)
    built = {"derive": derive_refs()}
    built["families"] = families_refs(built["derive"])
    built["numeric_pool"] = numeric_pool()
    status = 0
    spec.REFS.mkdir(exist_ok=True)
    for name, doc in built.items():
        path = spec.REFS / f"{name}.json"
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        if args.write:
            path.write_text(text)
            print(f"wrote {path.relative_to(spec.ROOT)}")
        elif not path.exists() or path.read_text() != text:
            print(f"DIFFERS: {path.relative_to(spec.ROOT)}")
            status = 1
        else:
            print(f"same: {path.relative_to(spec.ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
