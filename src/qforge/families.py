"""Parameter families that collapse the three-term relation to two terms.

A family assigns each of a, b, c, x 0 or a constant times a Laurent
monomial in its free symbols and q; a root-of-unity symbol carries a fixed
exact binding.  Construction rejects any other value and the degenerate
loci (a=1, b=1, a=c=0, b=c=0, c=x=0, x=0).  `compose`, the one family
substitution for Q and R, moves the map along a shift."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

from .errors import DegenerateFamily, UnsupportedBinding
from .exact import ExactScalar
from .poly import MultiPoly, RationalFunction
from .relations import ShiftVector

PARAM_KEYS = ("a", "b", "c", "x")


@dataclass(frozen=True)
class ParamFamily:
    name: str
    free_symbols: tuple[str, ...]
    assignment: dict  # {"a"|"b"|"c"|"x": RationalFunction}
    fixed_bindings: dict = field(default_factory=dict)  # {sym: ExactScalar}

    def __post_init__(self):
        missing = [k for k in PARAM_KEYS if k not in self.assignment]
        if missing:
            raise ValueError(f"family must assign {missing}")
        a, b, c, x = values = [self.assignment[k] for k in PARAM_KEYS]
        for k, v in zip(PARAM_KEYS, values):
            if not isinstance(v, RationalFunction):
                raise ValueError(f"family assigns {k} a {type(v).__name__}, not a RationalFunction")
            if not v.is_zero() and (len(v.num.nums) != 1 or len(v.den.nums) != 1):
                raise ValueError(f"family assigns {k} = {v}, not a constant times a Laurent monomial")
        if a == 1:
            raise DegenerateFamily("excluded locus a = 1")
        if b == 1:
            raise DegenerateFamily("excluded locus b = 1")
        if x.is_zero():
            raise DegenerateFamily("excluded locus x = 0")
        if a.is_zero() and c.is_zero():
            raise DegenerateFamily("excluded locus a = c = 0")
        if b.is_zero() and c.is_zero():
            raise DegenerateFamily("excluded locus b = c = 0")
        if c.is_zero() and x.is_zero():
            raise DegenerateFamily("excluded locus c = x = 0")

    def param_values(self, point: dict) -> dict:
        """Evaluate the assignment at concrete free-symbol values; the
        point must bind q and every free symbol not carried as fixed."""
        full = dict(self.fixed_bindings)
        full.update(point)
        return {k: self.assignment[k].eval(full) for k in PARAM_KEYS}

    def compose(self, poly: MultiPoly, shift, t: RationalFunction, steps: int = 1) -> RationalFunction:
        """poly at a t^(k steps), b t^(l steps), c t^(m steps), x t^(n
        steps) and q, for shift = (k, l, m, n): a numerator over the
        monomial the map gives, the numerator reduced modulo Phi_l(w) when
        the family fixes w to a primitive l-th root of unity
        (UnsupportedBinding for any other fixed binding or more than one).
        0 exactly when poly vanishes on the moved family."""
        root = _root_binding(self)
        point = {key: _times_power(self.assignment[key], t, s * steps) for key, s in zip(PARAM_KEYS, shift)}
        out = RationalFunction.const(poly.eval({**point, "q": RationalFunction.var("q")}))
        return out if root is None else RationalFunction(out.num.mod_cyclotomic(*root), out.den, False)


def _root_binding(fam: ParamFamily) -> tuple[str, int] | None:
    """(w, l) for the family's fixed binding w, a primitive l-th root of
    unity; None when the family fixes nothing.  UnsupportedBinding for any
    other fixed value and for more than one fixed binding."""
    if not fam.fixed_bindings:
        return None
    (sym, v), *more = fam.fixed_bindings.items()
    exact = not more and isinstance(v, (int, Fraction, ExactScalar))
    order = ExactScalar.coerce(v).root_order() if exact else None
    if order is None:
        raise UnsupportedBinding(f"family {fam.name} fixes {fam.fixed_bindings}; "
                                 "the exact check reduces one root of unity only")
    return sym, order


def _times_power(v: RationalFunction, t: RationalFunction, e: int) -> RationalFunction:
    """v t^e for the variable t and v zero or a constant times a Laurent
    monomial, built from v's coefficient and exponent vector in the
    normalized form (den a monic monomial prime to num's)."""
    if v.is_zero():
        return v
    num, den = v.num.terms, v.den.terms
    ((en, cn),), ((ed, cd),) = num.items(), den.items()
    powers = dict(zip(v.vars, map(sub, en, ed)))
    (name,) = t.vars
    powers[name] = powers.get(name, 0) + e
    names = tuple(sorted(s for s, k in powers.items() if k))
    return RationalFunction(MultiPoly(names, {tuple(max(powers[s], 0) for s in names): cn / cd}),
                            MultiPoly(names, {tuple(max(-powers[s], 0) for s in names): 1}), False)


def _rf(sym: str) -> RationalFunction:
    return RationalFunction.var(sym)


def family_qbinom2() -> ParamFamily:
    a, x = _rf("a"), _rf("x")
    q = _rf("q")
    return ParamFamily(
        "(a, -a, -q, x)", ("a", "x"),
        {"a": a, "b": -a, "c": -q, "x": x},
    )


def family_qgauss() -> ParamFamily:
    a, b, c = _rf("a"), _rf("b"), _rf("c")
    return ParamFamily(
        "(a, b, c, c/(ab))", ("a", "b", "c"),
        {"a": a, "b": b, "c": c, "x": c / (a * b)},
    )


def family_qkummer() -> ParamFamily:
    a, b = _rf("a"), _rf("b")
    q = _rf("q")
    return ParamFamily(
        "(a, b, bq/a, -q/a)", ("a", "b"),
        {"a": a, "b": b, "c": b * q / a, "x": -q / a},
    )


def family_root_of_unity(order: int) -> ParamFamily:
    """(zeta_l * q, b, zeta_l * b, 1) with the root carried as the fixed
    symbol w."""
    b, w = _rf("b"), _rf("w")
    q = _rf("q")
    one = RationalFunction.const(1)
    return ParamFamily(
        f"(z{order}*q, b, z{order}*b, 1)", ("b", "w"),
        {"a": w * q, "b": b, "c": w * b, "x": one},
        {"w": ExactScalar.zeta(order)},
    )


# pattern name -> (shift predicate on k, l, m, n; family constructor of the
# shift), in the order solution_families lists the matching families
PATTERNS = {
    "lln_even": (lambda k, l, m, n: k == l >= 0 and m == 0 and n > 0 and n % 2 == 0,
                 lambda s: family_qbinom2()),
    "sum_zero": (lambda k, l, m, n: k + l - m + n == 0,
                 lambda s: family_qgauss()),
    "kll": (lambda k, l, m, n: l > 0 and l % 2 == 0 and m == l - k and n == -k,
            lambda s: family_qkummer()),
    "oll_root": (lambda k, l, m, n: k == 0 and n == 0 and m == l and l >= 2,
                 lambda s: family_root_of_unity(s.l)),
}


def solution_families(shift) -> list[ParamFamily]:
    """The families of every PATTERNS entry the shift vector matches, in
    table order: (l,l,0,n) with n positive even -> (a,-a,-q,x);
    k+l-m+n = 0 -> (a,b,c,c/(ab)); (k,l,l-k,-k) with l positive even ->
    (a,b,bq/a,-q/a); (0,l,l,0) with l >= 2 -> (zeta_l q, b, zeta_l b, 1).
    """
    s = ShiftVector(*shift)
    return [make(s) for matches, make in PATTERNS.values() if matches(*s)]
