"""Closed-form expression trees for identity right-hand sides.

Trees are plain JSON-able dicts with node kinds lit, sym, qpow, qpoch,
mul, div, add, sub, pow.  A qpow node is q**e with an integer-valued
exponent expression (e.g. N*(N+1)/2); a qpoch node is (base; q^step)_len
where len is an integer-valued expression or "inf" (numeric mode only).
Evaluation is exact (ExactScalar) up to the infinite products, the only
nodes that round.
"""

from __future__ import annotations

from .approx import DEFAULT_PREC, ApproxScalar
from .errors import InvalidDomain, UnboundSymbol, ZeroDenominator
from .exact import ExactScalar, format_scalar, parse_scalar
from .qseries import qpoch_finite, qpoch_infinite

NODE_KINDS = ("lit", "sym", "qpow", "qpoch", "mul", "div", "add", "sub", "pow")


# -- constructors -------------------------------------------------------------
def lit(value) -> dict:
    if not isinstance(value, str):
        value = format_scalar(ExactScalar.coerce(value))
    return {"kind": "lit", "value": value}


def sym(name: str) -> dict:
    return {"kind": "sym", "name": name}


def qpow(exp) -> dict:
    return {"kind": "qpow", "exp": _as_tree(exp)}


def qpoch(base, step: int, length) -> dict:
    length = "inf" if length == "inf" else _as_tree(length)
    return {"kind": "qpoch", "base": _as_tree(base), "step": int(step), "len": length}


def mul(*args) -> dict:
    return _fold("mul", args)


def add(*args) -> dict:
    return _fold("add", args)


def div(left, right) -> dict:
    return {"kind": "div", "left": _as_tree(left), "right": _as_tree(right)}


def sub(left, right) -> dict:
    return {"kind": "sub", "left": _as_tree(left), "right": _as_tree(right)}


def pow_(base, exp) -> dict:
    return {"kind": "pow", "base": _as_tree(base), "exp": _as_tree(exp)}


def neg(arg) -> dict:
    return sub(lit(0), arg)


def _as_tree(v) -> dict:
    if isinstance(v, dict):
        return v
    if isinstance(v, str):
        return sym(v)
    return lit(v)


def _fold(kind: str, args) -> dict:
    args = [_as_tree(a) for a in args]
    if not args:
        return lit(1)
    out = args[0]
    for nxt in args[1:]:
        out = {"kind": kind, "left": out, "right": nxt}
    return out


# -- validation ----------------------------------------------------------------
def validate(tree: dict) -> None:
    if not isinstance(tree, dict) or tree.get("kind") not in NODE_KINDS:
        raise ValueError(f"bad expression node: {tree!r}")
    kind = tree["kind"]
    if kind == "lit":
        parse_scalar(tree["value"])
    elif kind == "sym":
        if not isinstance(tree.get("name"), str):
            raise ValueError("sym node needs a name")
    elif kind == "qpow":
        validate(tree["exp"])
    elif kind == "qpoch":
        validate(tree["base"])
        if not (isinstance(tree["step"], int) and tree["step"] >= 1):
            raise ValueError("qpoch step must be a positive integer")
        if tree["len"] != "inf":
            validate(tree["len"])
    elif kind == "pow":
        validate(tree["base"])
        validate(tree["exp"])
    else:
        validate(tree["left"])
        validate(tree["right"])


def free_symbols(tree: dict) -> set[str]:
    kind = tree["kind"]
    if kind == "lit":
        return set()
    if kind == "sym":
        return {tree["name"]}
    if kind == "qpow":
        return free_symbols(tree["exp"])
    if kind == "qpoch":
        out = free_symbols(tree["base"])
        if tree["len"] != "inf":
            out |= free_symbols(tree["len"])
        return out
    if kind == "pow":
        return free_symbols(tree["base"]) | free_symbols(tree["exp"])
    return free_symbols(tree["left"]) | free_symbols(tree["right"])


# -- evaluation ---------------------------------------------------------------------
def closed_form_eval(tree: dict, bindings: dict, mode: str = "exact",
                     tol: float = 1e-12, prec: int = DEFAULT_PREC):
    """Bottom-up evaluation, exact until the first infinite product.

    Every node evaluates to an ExactScalar except a qpoch(..., "inf")
    node, an ApproxScalar within tol / (8 * the number of infinite
    factors); the operators promote mixed operands.  `mode` names the
    result: "exact" an ExactScalar (InvalidDomain if the tree has an
    infinite factor), "numeric" an ApproxScalar at prec bits."""
    if mode not in ("exact", "numeric"):
        raise ValueError("mode must be 'exact' or 'numeric'")
    _binding(bindings, "q")
    n_inf = _count_inf(tree)
    if mode == "exact" and n_inf:
        raise InvalidDomain("infinite q-Pochhammer factor requires numeric mode")
    v = _eval(tree, bindings, tol / (8 * max(1, n_inf)), prec)
    return v if mode == "exact" else ApproxScalar.coerce(v, prec)


def eval_int(tree: dict, bindings: dict) -> int:
    """The value of an integer-valued sub-expression (an exponent or a length)."""
    if _count_inf(tree):
        raise InvalidDomain("infinite q-Pochhammer factor in an integer expression")
    v = _eval(tree, bindings, 0, DEFAULT_PREC)
    if not v.is_rational() or v.den != 1:
        raise InvalidDomain(f"expression is not integer-valued: {v}")
    return v.nums[0]


def _binding(bindings: dict, name: str):
    if name not in bindings:
        raise UnboundSymbol(f"unbound symbol {name!r}")
    return bindings[name]


def _count_inf(tree: dict) -> int:
    kind = tree["kind"]
    if kind == "qpoch":
        return (1 if tree["len"] == "inf" else 0) + _count_inf(tree["base"])
    if kind in ("mul", "div", "add", "sub"):
        return _count_inf(tree["left"]) + _count_inf(tree["right"])
    if kind == "pow":
        return _count_inf(tree["base"])
    return 0


def _eval(tree: dict, bindings: dict, inf_tol: float, prec: int):
    kind = tree["kind"]
    if kind == "lit":
        return parse_scalar(tree["value"])
    if kind == "sym":
        return ExactScalar.coerce(_binding(bindings, tree["name"]))
    if kind == "qpow":
        return ExactScalar.coerce(_binding(bindings, "q")) ** eval_int(tree["exp"], bindings)
    if kind == "qpoch":
        base = _eval(tree["base"], bindings, inf_tol, prec)
        step_q = ExactScalar.coerce(_binding(bindings, "q")) ** tree["step"]
        if tree["len"] == "inf":
            return qpoch_infinite(base, step_q, inf_tol, prec).value
        n = eval_int(tree["len"], bindings)
        if n < 0:
            raise InvalidDomain("negative q-Pochhammer length")
        return qpoch_finite(base, step_q, n)
    if kind == "pow":
        base = _eval(tree["base"], bindings, inf_tol, prec)
        e = eval_int(tree["exp"], bindings)
        try:
            return base**e
        except ZeroDivisionError as exc:
            raise ZeroDenominator(str(exc)) from exc
    left = _eval(tree["left"], bindings, inf_tol, prec)
    right = _eval(tree["right"], bindings, inf_tol, prec)
    if kind == "mul":
        return left * right
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "div":
        try:
            return left / right
        except ZeroDivisionError as exc:
            raise ZeroDenominator(str(exc)) from exc
    raise ValueError(f"unknown node kind {kind!r}")
