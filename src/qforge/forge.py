"""Pipeline driver: identity registry, family checking (Q^(N) = 0),
R-product telescoping, identity verification, the Cauchy-product oracle
for the root-of-unity summation, and conjecture-pattern checks."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import mpmath

from . import closedform as cf
from .approx import DEFAULT_PREC, ApproxScalar, _upper
from .closedform import closed_form_eval
from .errors import (
    ConstraintViolated,
    DegenerateFamily,
    DegenerateParameter,
    NotTerminating,
    QForgeError,
    UnboundSymbol,
    UnreachableTolerance,
    ZeroDenominator,
)
from .exact import ExactScalar, format_scalar
from .families import PARAM_KEYS, PATTERNS, ParamFamily
from .poly import RationalFunction
from .qseries import (
    Phi21Params,
    SeriesValue,
    detect_termination,
    phi21_exact,
    phi21_numeric,
    qpoch_finite,
)
from .relations import WITNESS_POINTS, ShiftVector, ThreeTermRelation, qr_derive


_MODES = ("exact", "numeric")  # "exact" for terminating identities


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    mode: str  # one of _MODES
    free: tuple[str, ...]
    lhs: dict  # {"a"|"b"|"c"|"x": expression tree}
    rhs: dict
    constraints: tuple[dict, ...]
    ratio: tuple | None = None  # the rhs split by closedform.split_ratio, numeric records only


# -- registry ------------------------------------------------------------------


def build_default_registry() -> dict:
    """The nine built-in identity records, as a document in the JSON
    format that `load_registry(path)` reads."""
    a, b, c, x, M, N, w = (cf.sym(s) for s in "abcxMNw")
    q1 = cf.qpow(1)

    def rec(id_, mode, free, lhs, rhs, constraints):
        return {
            "id": id_, "mode": mode, "free": list(free),
            "lhs": lhs, "rhs": rhs, "constraints": constraints,
        }

    identities = [
        rec(
            "qbinom", "numeric", ["a", "x"],
            {"a": a, "b": cf.lit(0), "c": cf.lit(0), "x": x},
            cf.div(cf.qpoch(cf.mul(a, x), 1, "inf"), cf.qpoch(x, 1, "inf")),
            [{"type": "abs_lt", "expr": x, "bound": "1"}],
        ),
        rec(
            "qbinom2", "numeric", ["a", "x"],
            {"a": a, "b": cf.neg(a), "c": cf.neg(q1), "x": x},
            cf.div(cf.qpoch(cf.mul(cf.pow_(a, 2), x), 2, "inf"), cf.qpoch(x, 2, "inf")),
            [{"type": "abs_lt", "expr": x, "bound": "1"}],
        ),
        rec(
            "qgauss", "numeric", ["a", "b", "c"],
            {"a": a, "b": b, "c": c, "x": cf.div(c, cf.mul(a, b))},
            cf.div(
                cf.mul(cf.qpoch(cf.div(c, a), 1, "inf"), cf.qpoch(cf.div(c, b), 1, "inf")),
                cf.mul(cf.qpoch(c, 1, "inf"), cf.qpoch(cf.div(c, cf.mul(a, b)), 1, "inf")),
            ),
            [
                {"type": "nonzero", "expr": a},
                {"type": "nonzero", "expr": b},
                {"type": "abs_lt", "expr": cf.div(c, cf.mul(a, b)), "bound": "1"},
                {"type": "lhs_defined"},
            ],
        ),
        rec(
            "qkummer", "numeric", ["a", "b"],
            {"a": a, "b": b, "c": cf.div(cf.mul(b, q1), a), "x": cf.neg(cf.div(q1, a))},
            cf.div(
                cf.mul(
                    cf.qpoch(cf.neg(q1), 1, "inf"),
                    cf.mul(
                        cf.qpoch(cf.mul(b, q1), 2, "inf"),
                        cf.qpoch(cf.div(cf.mul(b, cf.qpow(2)), cf.pow_(a, 2)), 2, "inf"),
                    ),
                ),
                cf.mul(
                    cf.qpoch(cf.neg(cf.div(q1, a)), 1, "inf"),
                    cf.qpoch(cf.div(cf.mul(b, q1), a), 1, "inf"),
                ),
            ),
            [
                {"type": "nonzero", "expr": a},
                {"type": "abs_lt", "expr": cf.div(q1, a), "bound": "1"},
                {"type": "lhs_defined"},
            ],
        ),
        rec(
            "sv1", "exact", ["M", "N"],
            {
                "a": cf.qpow(cf.add(M, 2)),
                "b": cf.qpow(cf.mul(-2, N)),
                "c": cf.qpow(cf.sub(cf.mul(-2, N), cf.add(M, 1))),
                "x": cf.neg(cf.qpow(cf.sub(cf.lit(-1), M))),
            },
            cf.div(
                cf.mul(cf.qpoch(cf.neg(cf.qpow(cf.add(M, 2))), 1, N), cf.qpoch(q1, 2, N)),
                cf.qpoch(cf.qpow(cf.add(cf.add(M, N), 2)), 1, N),
            ),
            [{"type": "nonneg_int", "sym": "M"}, {"type": "nonneg_int", "sym": "N"}],
        ),
        rec(
            "sv2", "exact", ["M", "N"],
            {
                "a": cf.qpow(cf.add(M, 2)),
                "b": cf.qpow(cf.sub(cf.mul(-2, N), 1)),
                "c": cf.qpow(cf.sub(cf.mul(-2, N), cf.add(M, 2))),
                "x": cf.neg(cf.qpow(cf.sub(cf.lit(-1), M))),
            },
            cf.lit(0),
            [{"type": "nonneg_int", "sym": "M"}, {"type": "nonneg_int", "sym": "N"}],
        ),
        rec(
            "sv3", "exact", ["M", "N"],
            {
                "a": cf.qpow(cf.neg(N)),
                "b": cf.qpow(cf.sub(cf.sub(cf.mul(-2, N), M), 2)),
                "c": cf.qpow(cf.sub(cf.neg(N), cf.add(M, 1))),
                "x": cf.neg(cf.qpow(cf.add(N, 1))),
            },
            cf.div(
                cf.mul(cf.qpoch(cf.neg(q1), 1, N), cf.qpoch(cf.qpow(cf.add(M, 3)), 2, N)),
                cf.mul(
                    cf.qpow(cf.div(cf.mul(N, cf.add(N, 1)), 2)),
                    cf.qpoch(cf.qpow(cf.add(M, 2)), 1, N),
                ),
            ),
            [{"type": "nonneg_int", "sym": "M"}, {"type": "nonneg_int", "sym": "N"}],
        ),
        rec(
            "sv4", "exact", ["N", "w"],
            {
                "a": cf.mul(w, q1),
                "b": cf.qpow(cf.neg(N)),
                "c": cf.mul(w, cf.qpow(cf.neg(N))),
                "x": cf.lit(1),
            },
            cf.mul(
                cf.div(cf.sub(1, cf.pow_(w, cf.add(N, 1))), cf.sub(1, w)),
                cf.div(
                    cf.qpoch(cf.qpow(cf.neg(N)), 1, N),
                    cf.qpoch(cf.mul(w, cf.qpow(cf.neg(N))), 1, N),
                ),
            ),
            [{"type": "nonneg_int", "sym": "N"}, {"type": "primitive_root", "sym": "w", "order": 3}],
        ),
        rec(
            "sv5", "exact", ["a", "N"],
            {
                "a": cf.mul(a, q1),
                "b": cf.qpow(cf.neg(N)),
                "c": cf.mul(a, cf.qpow(cf.neg(N))),
                "x": cf.lit(1),
            },
            cf.mul(
                cf.div(cf.sub(1, cf.pow_(a, cf.add(N, 1))), cf.sub(1, a)),
                cf.div(
                    cf.qpoch(cf.qpow(cf.neg(N)), 1, N),
                    cf.qpoch(cf.mul(a, cf.qpow(cf.neg(N))), 1, N),
                ),
            ),
            [
                {"type": "nonneg_int", "sym": "N"},
                {"type": "nonzero", "expr": a},
                {"type": "ne", "expr": a, "value": "1"},
                {"type": "lhs_defined"},
            ],
        ),
    ]
    return {"version": 1, "identities": identities}


# a record's fields and each constraint type's, with their JSON types ("expr": an expression tree)
_RECORD = {"id": str, "mode": str, "free": list, "lhs": dict, "rhs": "expr", "constraints": list}
_CONSTRAINTS = {"nonneg_int": {"sym": str}, "abs_lt": {"expr": "expr", "bound": str}, "nonzero": {"expr": "expr"},
                "ne": {"expr": "expr", "value": str}, "primitive_root": {"sym": str, "order": int}, "lhs_defined": {}}


def _parse_registry(doc: dict) -> dict[str, IdentityRecord]:
    """The records by id; ValueError naming the record and the field for
    a malformed record or a repeated id."""
    items = doc.get("identities") if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise ValueError("registry: 'identities' must be a list of records")
    out = {}
    for n, item in enumerate(items):
        rid = item.get("id") if isinstance(item, dict) else None
        where = f"identity {rid!r}" if isinstance(rid, str) else f"record {n}"
        _check_fields(where, item, _RECORD)
        if item["mode"] not in _MODES:
            raise ValueError(f"{where}: unknown mode {item['mode']!r}")
        if not all(isinstance(s, str) for s in item["free"]):
            raise ValueError(f"{where}: 'free' must be a list of strings")
        _check_fields(f"{where} lhs", item["lhs"], dict.fromkeys(PARAM_KEYS, "expr"))
        for con in item["constraints"]:
            kind = con.get("type") if isinstance(con, dict) else None
            if kind not in _CONSTRAINTS:
                raise ValueError(f"{where}: unknown constraint type {kind!r}")
            _check_fields(f"{where} constraint {kind}", con, _CONSTRAINTS[kind])
        if rid in out:
            raise ValueError(f"{where}: duplicate id")
        ratio = cf.split_ratio(item["rhs"]) if item["mode"] == "numeric" else None
        out[rid] = IdentityRecord(rid, item["mode"], tuple(item["free"]), item["lhs"], item["rhs"],
                                  tuple(item["constraints"]), ratio)
    return out


def _check_fields(where: str, obj, fields: dict) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, not {type(obj).__name__}")
    for key, kind in fields.items():
        if key not in obj:
            raise ValueError(f"{where}: missing {key!r}")
        if kind == "expr":
            try:
                cf.validate(obj[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{where}: bad expression in {key!r}: {type(exc).__name__}: {exc}") from exc
        elif not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise ValueError(f"{where}: {key!r} must be {kind.__name__}, not {type(obj[key]).__name__}")


def load_registry(path: str | None = None) -> dict[str, IdentityRecord]:
    """The registry in the JSON file at `path`; the built-in one if None."""
    if path is None:
        return _parse_registry(build_default_registry())
    with open(path) as fh:
        return _parse_registry(json.load(fh))


@cache
def default_registry() -> dict[str, IdentityRecord]:
    """The built-in registry, loaded once."""
    return load_registry()


# -- constraints ---------------------------------------------------------------------


def check_constraints(record: IdentityRecord, bindings: dict,
                      prec: int = DEFAULT_PREC) -> SeriesValue | None:
    """Raises ConstraintViolated with the failed predicate's description;
    an abs_lt bound is shown on a ball of prec bits.  Returns the exact
    lhs series a terminating record's `lhs_defined` probe summed (None if
    there was none), for the caller to reuse."""
    lhs = None
    for con in record.constraints:
        kind = con["type"]
        if kind == "nonneg_int":
            v = bindings.get(con["sym"])
            iv = _as_int_or_none(v)
            if iv is None or iv < 0:
                raise ConstraintViolated(f"{con['sym']} must be a non-negative integer")
        elif kind == "abs_lt":
            val = closed_form_eval(con["expr"], bindings, "numeric", 1e-12, prec)
            bound = Fraction(con["bound"])
            if not _upper(val) < bound:  # for every value in the ball
                re, im, rad = val.ball  # |v| >= low for every v in the ball
                low = Fraction(math.isqrt(re * re + im * im) - rad) * Fraction(2) ** val.exp
                known = "violated" if low >= bound else f"not shown at {val.prec} bits"
                raise ConstraintViolated(f"|expr| < {con['bound']} {known}")
        elif kind == "ne":
            val = closed_form_eval(con["expr"], bindings, "exact", 0)
            if val == ExactScalar.coerce(Fraction(con["value"])):
                raise ConstraintViolated(f"expr = {con['value']} excluded")
        elif kind == "nonzero":
            val = closed_form_eval(con["expr"], bindings, "exact", 0)
            if val.is_zero():
                raise ConstraintViolated("expr must be nonzero")
        elif kind == "primitive_root":
            if ExactScalar.coerce(bindings.get(con["sym"])).root_order() != con["order"]:
                raise ConstraintViolated(f"{con['sym']} must be a primitive root of order {con['order']}")
        elif kind == "lhs_defined":
            lhs = _probe_lhs_defined(record, bindings)
        else:
            raise ValueError(f"unknown constraint type {kind!r}")
    return lhs


def _as_int_or_none(v):
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    if isinstance(v, ExactScalar) and v.is_rational() and v.as_rational().denominator == 1:
        return int(v.as_rational())
    return None


def _probe_lhs_defined(record: IdentityRecord, bindings: dict) -> SeriesValue | None:
    """Exact check that no denominator factor of the lhs series vanishes:
    (c;q)_i and (q;q)_i within the summation range of a terminating record
    (phi21_exact's check, whose sum it returns), c*q^j = 1 for a
    non-terminating one, whose rhs divides by (c;q)_inf."""
    p = _lhs_params(record, bindings)
    if record.mode == "numeric":
        j = detect_termination(p.c, p.c, p.q)
        if j is not None:
            raise ConstraintViolated(f"denominator factor 1 - c*q^{j} vanishes")
        return None
    try:
        return phi21_exact(p)
    except NotTerminating as exc:
        raise ConstraintViolated("series does not terminate") from exc
    except ZeroDenominator as exc:
        raise ConstraintViolated(str(exc)) from exc


def _lhs_params(record: IdentityRecord, bindings: dict) -> Phi21Params:
    """The parameters of the record's left-hand 2phi1 at the bindings, as
    ExactScalars."""
    v = {k: closed_form_eval(record.lhs[k], bindings) for k in PARAM_KEYS}
    return Phi21Params(v["a"], v["b"], v["c"], ExactScalar.coerce(bindings["q"]), v["x"])


# -- verify ------------------------------------------------------------------------------


@dataclass
class VerifyCase:
    identity: str
    bindings: dict
    mode: str
    status: str  # "pass" | "fail" | "error"
    lhs: str | None = None
    rhs: str | None = None
    abs_err: float | None = None
    terms_used: int | None = None
    detail: str | None = None

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "bindings": {k: _scalar_text(v) for k, v in self.bindings.items()},
            "mode": self.mode, "status": self.status, "lhs": self.lhs, "rhs": self.rhs,
            "abs_err": self.abs_err, "terms_used": self.terms_used, "detail": self.detail,
        }


def _scalar_text(v) -> str:
    if isinstance(v, ApproxScalar):
        return mpmath.nstr(v.val, 17)
    if isinstance(v, (int, Fraction, ExactScalar)):
        return format_scalar(ExactScalar.coerce(v))
    return str(v)


def verify_identity(identity_id: str, bindings: dict, tol: float = 1e-12,
                    registry: dict | None = None, prec: int = DEFAULT_PREC) -> VerifyCase:
    """Evaluate both sides of a registered identity at concrete bindings.

    Exact-terminating records demand exact equality; numeric records
    demand |lhs - rhs| <= tol with both propagated error bounds included.
    Each of up to four rounds sums at a smaller tol, resuming the last
    round's lhs sum (phi21_numeric) and rhs ratio (closedform.ratio_eval;
    closed_form_eval evaluates an rhs that is not one ratio afresh).
    Raises ConstraintViolated for out-of-domain bindings,
    UnreachableTolerance for a tol not positive and finite or below the
    rounding error at prec bits; evaluation errors propagate.
    """
    record = (registry or default_registry())[identity_id]
    return _verify_checked(record, bindings, check_constraints(record, bindings, prec), tol, prec)


def _verify_checked(record: IdentityRecord, bindings: dict, probed: SeriesValue | None,
                    tol: float, prec: int) -> VerifyCase:
    """verify_identity at bindings that passed check_constraints, which
    returned `probed`."""
    mode = record.mode
    lhs = _lhs_params(record, bindings)
    if mode == "exact":
        series = probed if probed is not None else phi21_exact(lhs)
        rhs = closed_form_eval(record.rhs, bindings, "exact", 0)
        ok = (series.value - rhs).is_zero()
        return VerifyCase(
            record.id, bindings, mode, "pass" if ok else "fail",
            lhs=format_scalar(series.value), rhs=format_scalar(rhs),
            abs_err=0.0 if ok else None, terms_used=series.terms_used,
        )
    inner = tol / 8
    series = ratio = rhs = diff = budget = None
    # slowly converging points (|x| near 1) need a tighter summation
    # tolerance than tol/8; the propagated error bounds tell us how much
    for _ in range(4):
        series = phi21_numeric(lhs, inner, prec, series)
        if record.ratio is None:
            rhs = closed_form_eval(record.rhs, bindings, "numeric", inner, prec)
        else:
            ratio = cf.ratio_eval(record.ratio, bindings, inner, prec, ratio)
            rhs = ratio.value
        diff = abs((series.value - rhs).val)
        budget = diff + series.value.err + rhs.err
        if budget <= tol:
            break
        # each side is held to prec bits, and a rounding to prec bits adds
        # up to two units of its last bit, about 2**(1-prec) times its
        # magnitude, to its err whatever the summation tol: a tol below
        # that asks for bits the values do not keep
        floor = (series.value.magnitude() + rhs.magnitude()) * mpmath.mpf(2) ** (1 - prec)
        if tol < floor:
            raise UnreachableTolerance(
                f"tol {tol:g} is below the rounding error {mpmath.nstr(floor, 3)} "
                f"of {prec}-bit arithmetic at this point"
            )
        inner = inner * mpmath.mpf(tol) / (4 * budget)
    ok = bool(budget <= tol)
    return VerifyCase(
        record.id, bindings, mode, "pass" if ok else "fail",
        lhs=_scalar_text(series.value), rhs=_scalar_text(rhs),
        abs_err=float(diff), terms_used=series.terms_used,
    )


# -- family checking -------------------------------------------------------------------------


def _relation_for(shift: ShiftVector, relation: ThreeTermRelation | None) -> ThreeTermRelation:
    return qr_derive(shift) if relation is None else relation


def check_family(shift, fam: ParamFamily, n_max: int = 4, *, relation: ThreeTermRelation | None = None,
                 trials: int | None = None, seed: int | None = None) -> bool:
    """True iff Q^(N), Q at the family's parameters moved N - 1 steps along
    the shift, vanishes identically for every N = 1..n_max; ValueError
    unless n_max >= 1, DegenerateFamily at the first undefined Q^(N).

    Both are proved by ParamFamily.compose.  num(Q) is composed once with
    a, b, c, x moved by a step symbol t the family does not use, which
    proves every N at once; failing that, once per N at t = q^(N-1).  A
    nonzero den(Q) at the fixed point _WITNESS proves Q^(N) defined; only a
    0 there, or a pole of the family there, composes den(Q)."""
    # trials and seed are unread; their last caller, perfbench/workloads.py, drops them in ROADMAP item 6
    if n_max < 1:
        raise ValueError(f"check_family needs n_max >= 1, not {n_max}")
    rel = _relation_for(shift, relation)
    step = "t"
    while step in {"q", *fam.free_symbols, *fam.fixed_bindings,
                   *(s for v in fam.assignment.values() for s in v.vars)}:
        step += "_"
    every_n = fam.compose(rel.Q.num, shift, RationalFunction.var(step)).is_zero()
    point = {**dict.fromkeys(fam.free_symbols, Fraction(1, 19)), **_WITNESS, **fam.fixed_bindings}
    try:
        base = _family_params(fam, point)
        witnessed = [rel.Q.den.eval(vars(base.shifted(shift, n))) != 0 for n in range(n_max)]
    except ZeroDivisionError:
        witnessed = [False] * n_max
    q = RationalFunction.var("q")
    for n, defined in enumerate(witnessed, 1):
        if not defined and fam.compose(rel.Q.den, shift, q, n - 1).is_zero():
            raise DegenerateFamily(f"Q^({n}) is undefined on family {fam.name}")
        if not (every_n or fam.compose(rel.Q.num, shift, q, n - 1).is_zero()):
            return False
    return True


# check_family's evaluation point of den(Q): the series check's first witness
# point with x = 7/17; a free symbol it does not name takes 1/19
_WITNESS = {**dict(zip("abcq", WITNESS_POINTS[0])), "x": Fraction(7, 17)}


def _family_params(fam: ParamFamily, point: dict) -> Phi21Params:
    """The family's 2phi1 parameters at the point, which must bind q
    (UnboundSymbol otherwise)."""
    if "q" not in point:
        raise UnboundSymbol("point does not bind ['q']")
    return Phi21Params(q=point["q"], **fam.param_values(point))


# -- telescoping ---------------------------------------------------------------------------------


def product_R(shift, fam: ParamFamily, n: int,
              relation: ThreeTermRelation | None = None) -> RationalFunction:
    """prod_{i=1}^{n} R^(i) as a rational function of the family's free
    symbols and q, num(R) and den(R) each composed by ParamFamily.compose
    (so reduced modulo Phi_l(w) on a root-of-unity family); not in lowest
    terms, it equals a closed form by cross-multiplication.  The empty
    product is 1; DegenerateFamily names an i whose den(R) composes to 0."""
    rel = _relation_for(shift, relation)
    q = RationalFunction.var("q")
    out = RationalFunction.const(1)
    for i in range(1, n + 1):
        den = fam.compose(rel.R.den, shift, q, i - 1)
        if den.is_zero():
            raise DegenerateFamily(f"R^({i}) undefined for family {fam.name}")
        out = out * fam.compose(rel.R.num, shift, q, i - 1) / den
    return out


@dataclass
class PipelineStep:
    """One step N of a telescoping run; lhs, product and telescoped are
    scalars (ExactScalar in exact mode, ApproxScalar numerically)."""

    N: int
    lhs: object
    product: object
    telescoped: object
    residual: float
    ok: bool

    def to_json(self) -> dict:
        return {"N": self.N, "lhs": _scalar_text(self.lhs), "product": _scalar_text(self.product),
                "telescoped": _scalar_text(self.telescoped), "residual": self.residual,
                "ok": self.ok}


@dataclass
class PipelineRun:
    shift: ShiftVector
    family: str
    n_max: int
    point: dict
    mode: str
    steps: list[PipelineStep] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.steps)

    def to_json(self) -> dict:
        return {
            "shift": str(self.shift), "family": self.family, "n_max": self.n_max,
            "point": {k: _scalar_text(v) for k, v in self.point.items()},
            "mode": self.mode, "passed": self.passed,
            "steps": [s.to_json() for s in self.steps],
        }


def telescoped_check(shift, fam: ParamFamily, n_max: int, point: dict,
                     tol: float = 1e-12, mode: str = "numeric",
                     relation: ThreeTermRelation | None = None,
                     prec: int = DEFAULT_PREC) -> PipelineRun:
    """Check phi(base) = (1 / prod R^(i)) * phi(step-N params) for each
    N <= n_max; exact equality in exact mode, residual <= tol numerically.
    ValueError unless n_max >= 1.
    """
    if n_max < 1:
        raise ValueError(f"telescoped_check needs n_max >= 1, not {n_max}")
    if mode not in _MODES:
        raise ValueError(f"telescoped_check: unknown mode {mode!r}")
    shift = ShiftVector(*shift)
    rel = _relation_for(shift, relation)
    run = PipelineRun(shift, fam.name, n_max, point, mode)
    base = _family_params(fam, point)

    def phi_at(steps: int, scale=1):
        """phi at the step-`steps` parameters, summed numerically at
        tol scale / 10: divided by a prod of modulus at least scale, its
        error stays below tol / 10."""
        p = base.shifted(shift, steps)
        if mode == "exact":
            return phi21_exact(p).value
        return phi21_numeric(p, tol * scale / 10, prec).value

    lhs = phi_at(0)
    prod = ExactScalar.from_rational(1) if mode == "exact" else ApproxScalar.coerce(1, prec)
    for i in range(1, n_max + 1):
        r_i = rel.R.eval(vars(base.shifted(shift, i - 1)))
        prod = prod * r_i
        # a prod whose midpoint is 0 fails the division below at any tol
        shifted = phi_at(i, 1 if mode == "exact" else min(1, prod.magnitude()) or 1)
        telescoped = shifted / prod
        if mode == "exact":
            ok = (lhs - telescoped).is_zero()
            residual = 0.0 if ok else float("nan")
        else:
            delta = lhs - telescoped
            residual = float(abs(delta.val))
            ok = residual + delta.err <= tol
        run.steps.append(PipelineStep(i, lhs, prod, telescoped, residual, ok))
    return run


# -- the Cauchy-product oracle ----------------------------------------------------------------------


_CAUCHY_QS = (Fraction(1, 2), Fraction(2, 3))


def sv5_cauchy_check(a, n_max: int) -> bool:
    """Independent coefficient-comparison oracle: checks that

        sum_{i=0}^{N} (aq;q)_i (q^-N;q)_i prod_{j=i}^{N-1}(1 - a q^(j-N))
                      / ((q;q)_i (q^-N;q)_N)

    equals (1 - a^(N+1)) / (1 - a) exactly, for every N <= n_max and
    q in _CAUCHY_QS.  The inner product form avoids dividing by (aq^-N;q)_i,
    so the check is total away from a = 1.
    """
    a = ExactScalar.coerce(a)
    if (a - 1).is_zero():
        raise DegenerateParameter("a = 1 makes the closed form's denominator vanish")
    one = ExactScalar.from_rational(1)
    for q0 in _CAUCHY_QS:
        q = ExactScalar.coerce(q0)
        qinv = one / q
        for n in range(n_max + 1):
            # ratio_i = prod_{j=i}^{N-1} (1 - a q^(j-N)), built downward
            ratios = [one] * (n + 1)
            for i in range(n - 1, -1, -1):
                ratios[i] = ratios[i + 1] * (one - a * qinv ** (n - i))
            den_qn = qpoch_finite(qinv**n, q, n)  # (q^-N; q)_N
            total = ExactScalar.from_rational(0)
            num_aq = one
            num_qn = one
            num_q = one
            aq = a * q
            bq = qinv**n
            qq = one
            for i in range(n + 1):
                if i:
                    qq = qq * q
                    num_aq = num_aq * (one - aq)
                    num_qn = num_qn * (one - bq)
                    num_q = num_q * (one - qq)
                    aq = aq * q
                    bq = bq * q
                total = total + num_aq * num_qn * ratios[i] / (num_q * den_qn)
            rhs = (one - a ** (n + 1)) / (one - a)
            if not (total - rhs).is_zero():
                return False
    return True


# -- conjecture patterns ------------------------------------------------------------------------------


@dataclass
class ConjectureStep:
    name: str
    status: str  # "pass" | "fail" | "error"
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class ConjectureReport:
    pattern: str
    instance: ShiftVector
    steps: list[ConjectureStep] = field(default_factory=list)
    trivial: bool = False

    @property
    def passed(self) -> bool:
        return all(s.status == "pass" for s in self.steps)

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern, "instance": str(self.instance),
            "passed": self.passed, "trivial": self.trivial,
            "steps": [s.to_json() for s in self.steps],
        }


def conjecture_check(pattern: str, instance, n_max: int = 4) -> ConjectureReport:
    """Instance-level evidence for a conjectured solution-family pattern:
    derives (Q, R), runs the family check, and exercises the identity the
    pattern predicts.  Reports per-step outcomes only."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}")
    shift = ShiftVector(*instance)
    matches, make_family = PATTERNS[pattern]
    if not matches(*shift):
        raise ValueError(f"instance {shift} does not match pattern {pattern!r}")
    report = ConjectureReport(pattern, shift)

    def run_step(name, fn):
        try:
            ok, detail = fn()
            report.steps.append(ConjectureStep(name, "pass" if ok else "fail", detail))
        except (QForgeError, ZeroDivisionError) as exc:  # an engine failure is a step outcome
            report.steps.append(ConjectureStep(name, "error", f"{type(exc).__name__}: {exc}"))

    rel_box: dict = {}

    def derive_step():
        rel_box["rel"] = qr_derive(shift)
        return True, "derived and series-verified"

    run_step("derive_relation", derive_step)
    rel = rel_box.get("rel")
    if rel is None:
        return report

    fam = make_family(shift)

    def family_step():
        ok = check_family(shift, fam, n_max=n_max, relation=rel)
        return ok, f"{'proved' if ok else 'disproved'} Q^(N) = 0 on {[fam.name]} for N <= {n_max}"

    run_step("family_check", family_step)

    if pattern in ("lln_even", "sum_zero", "kll"):
        def telescope_step():
            point, v, r = _terminating_point(fam, shift)
            run = telescoped_check(shift, fam, 3, point, mode="exact", relation=rel)
            report.trivial = all(st.telescoped == 1 for st in run.steps)
            return run.passed, f"exact telescoping at {v}=q^-{r}, N<=3"

        run_step("telescoping", telescope_step)

    if pattern == "oll_root":
        def sv5_step():
            z = ExactScalar.zeta(shift.l)
            results = []
            for n in range(0, n_max + 1):
                case = verify_identity("sv5", {"a": z, "N": n, "q": Fraction(1, 2)})
                results.append(case.status == "pass")
            oracle = sv5_cauchy_check(z, n_max)
            return all(results) and oracle, f"sv5 exact at a=zeta_{shift.l} for N<={n_max} plus Cauchy oracle"

        run_step("root_of_unity_identity", sv5_step)

    return report


def _terminating_point(fam: ParamFamily, shift: ShiftVector) -> tuple[dict, str, int]:
    """(point, v, r): the point at which conjecture_check telescopes
    exactly for N <= 3, where the symbol v is q^-r.

    The family's free symbols take their values from _WITNESS, with q =
    1/3.  Then v = b is set to q^-r, r = 3 max(l, 0) + 1 for the shift's b
    component l; a family that does not take b as a free symbol (b = -a
    in lln_even) sets v = a instead, with its own component for l.  Why
    this works: at every step N <= 3 the moved v is q^-s with 1 <= s <=
    r + 3|l|, so every series summed terminates.  Each factor 1 - v q^j
    of an R^(N) has j <= 3 max(l, 0) < r, so none of them vanishes.  The
    other witness values each keep a prime (7, 11, 13 or 17) that q
    lacks, so none of them is a power of q."""
    v = "b" if "b" in fam.free_symbols else "a"
    r = 3 * max(shift.l if v == "b" else shift.k, 0) + 1
    point = {s: _WITNESS[s] for s in fam.free_symbols}
    point["q"] = _WITNESS["q"]
    point[v] = _WITNESS["q"] ** -r
    return point, v, r
