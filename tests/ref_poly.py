"""Reference for tests/test_poly_core.py: qforge.poly as it was before the
integer core, with every coefficient a Fraction keyed by its exponent
tuple, and cancellation by sympy gcd over QQ.  Kept verbatim but for this
docstring and the import of qforge's error types."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from qforge.errors import UnboundSymbol, ZeroDenominator

RELATION_VARS = ("a", "b", "c", "q", "x")


@lru_cache(maxsize=None)
def _sym_ring(var_names: tuple[str, ...]):
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    R, *_ = ring(",".join(var_names), QQ)
    return R, QQ


class MultiPoly:
    """Polynomial with rational coefficients in a sorted tuple of symbols."""

    __slots__ = ("vars", "terms", "_nested")

    def __init__(self, var_names, terms: dict | None = None):
        var_names = tuple(var_names)
        assert tuple(sorted(var_names)) == var_names, "vars must be sorted"
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                exps = tuple(int(e) for e in exps)
                assert len(exps) == len(var_names)
                assert all(e >= 0 for e in exps)
                clean[exps] = coeff
        object.__setattr__(self, "vars", var_names)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_nested", None)  # built by the first eval

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):  # pickle and copy through the constructor
        return MultiPoly, (self.vars, self.terms)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(value, var_names=()) -> "MultiPoly":
        value = Fraction(value)
        var_names = tuple(sorted(var_names))
        if value == 0:
            return MultiPoly(var_names, {})
        return MultiPoly(var_names, {(0,) * len(var_names): value})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    # -- alignment ----------------------------------------------------------
    def extend(self, var_names) -> "MultiPoly":
        var_names = tuple(sorted(set(var_names) | set(self.vars)))
        if var_names == self.vars:
            return self
        pos = [var_names.index(v) for v in self.vars]
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(var_names)
            for p, e in zip(pos, exps):
                new[p] = e
            terms[tuple(new)] = coeff
        return MultiPoly(var_names, terms)

    @staticmethod
    def _align(p: "MultiPoly", q: "MultiPoly"):
        if p.vars == q.vars:
            return p, q
        common = tuple(sorted(set(p.vars) | set(q.vars)))
        return p.extend(common), q.extend(common)

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other, self.vars)
        return None

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree_in(self, name: str) -> int:
        if name not in self.vars or self.is_zero():
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading(self):
        """(exponents, coefficient) under descending lexicographic order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def content(self) -> Fraction:
        """Positive rational content (gcd of numerators / lcm of denominators)."""
        if self.is_zero():
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, q = MultiPoly._align(self, other)
        terms = dict(p.terms)
        for exps, coeff in q.terms.items():
            acc = terms.get(exps, Fraction(0)) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return MultiPoly(p.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, q = MultiPoly._align(self, other)
        terms: dict = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(key, Fraction(0)) + c1 * c2
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        return MultiPoly(p.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = MultiPoly.const(1, self.vars)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, q = MultiPoly._align(self, other)
        return p.terms == q.terms

    def __hash__(self):
        # == extends both sides to the union of their vars, so hash only
        # the variables that occur, and a constant as its value
        if self.is_const():
            return hash(self.const_value())
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exps) if e), c) for exps, c in self.terms.items()
        ))

    # -- evaluation ------------------------------------------------------------------
    def eval(self, point: dict):
        """Value at `point` by sparse Horner's rule, in the ring of the point's
        values (Fraction, ExactScalar, RationalFunction, ...); the one evaluator."""
        if self._nested is None:
            used = tuple(v for i, v in enumerate(self.vars) if any(e[i] for e in self.terms))
            object.__setattr__(self, "_nested", (used, _nest(self.vars, self.terms)))
        used, nested = self._nested
        missing = [v for v in used if v not in point]
        if missing:
            raise UnboundSymbol(f"point does not bind {missing}")
        return _horner(nested, point)

    # -- sympy bridge ----------------------------------------------------------------
    def _to_sym(self):
        names = self.vars if self.vars else ("a",)
        R, QQ = _sym_ring(names)
        poly = self if self.vars else self.extend(names)
        return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in poly.terms.items()})

    @staticmethod
    def _from_sym(sym_poly, var_names):
        terms = {}
        for monom, coeff in sym_poly.terms():
            terms[tuple(monom)] = Fraction(int(coeff.numerator), int(coeff.denominator))
        return MultiPoly(var_names, terms)

    # -- text format ---------------------------------------------------------------------
    def to_text(self) -> str:
        """Canonical term-ordered text, e.g. `(-1)*a*b*x + c`."""
        if self.is_zero():
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exps) if e
            )
            if not mono:
                parts.append(f"({_fmt_frac(coeff)})")
            elif coeff == 1:
                parts.append(mono)
            else:
                parts.append(f"({_fmt_frac(coeff)})*{mono}")
        return " + ".join(parts)

    @staticmethod
    def from_text(text: str) -> "MultiPoly":
        text = text.strip()
        if text == "0":
            return MultiPoly((), {})
        acc: dict[str, dict] = {"terms": []}
        for part in text.split(" + "):
            part = part.strip()
            m = re.match(r"^\((-?\d+(?:/\d+)?)\)(?:\*(.+))?$", part)
            if m:
                coeff = Fraction(m.group(1))
                mono = m.group(2) or ""
            else:
                coeff = Fraction(1)
                mono = part
            exps: dict[str, int] = {}
            if mono:
                for factor in mono.split("*"):
                    fm = re.match(r"^([A-Za-z_]\w*)(?:\^(\d+))?$", factor)
                    if not fm:
                        raise ValueError(f"bad monomial factor {factor!r}")
                    exps[fm.group(1)] = exps.get(fm.group(1), 0) + int(fm.group(2) or 1)
            acc["terms"].append((exps, coeff))
        names = tuple(sorted({v for exps, _ in acc["terms"] for v in exps}))
        terms: dict = {}
        for exps, coeff in acc["terms"]:
            key = tuple(exps.get(v, 0) for v in names)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return MultiPoly(names, terms)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


def _nest(var_names: tuple, terms: dict):
    """The Horner form of `terms`: a coefficient, or (name, ((e, node), ...))
    with the terms grouped by the exponent e of the first variable that
    occurs, descending."""
    if not var_names:
        return terms.get((), Fraction(0))
    groups: dict[int, dict] = {}
    for exps, coeff in terms.items():
        groups.setdefault(exps[0], {})[exps[1:]] = coeff
    if set(groups) <= {0}:
        return _nest(var_names[1:], groups.get(0, {}))
    return var_names[0], tuple((e, _nest(var_names[1:], groups[e])) for e in sorted(groups, reverse=True))


def _horner(node, point: dict):
    """A Horner form's value: acc -> acc * v^gap + next group, highest power first."""
    if not isinstance(node, tuple):
        return node
    name, groups = node
    v = point[name]
    top, sub = groups[0]
    acc = _horner(sub, point)
    for e, sub in groups[1:]:
        acc = acc * v ** (top - e) + _horner(sub, point)
        top = e
    return acc * v**top if top else acc


def _fmt_frac(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class RationalFunction:
    """Quotient of two MultiPolys with nonzero denominator.

    Stored without forced GCD reduction; `normalize` fixes the canonical
    sign (positive leading denominator coefficient) and strips rational
    content and common monomial factors.  `cancel` additionally divides
    out the multivariate gcd.  Equality is exact via cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, normalize: bool = True):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        num, den = MultiPoly._align(num, den)
        if normalize:
            num, den = _normalize_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):  # num and den are normalized already
        return RationalFunction, (self.num, self.den, False)

    # -- constructors --------------------------------------------------------
    @staticmethod
    def const(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        return RationalFunction(MultiPoly.const(value), MultiPoly.const(1))

    @staticmethod
    def var(name: str) -> "RationalFunction":
        return RationalFunction(MultiPoly.var(name), MultiPoly.const(1))

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalFunction":
        return RationalFunction(p, MultiPoly.const(1, p.vars))

    @staticmethod
    def _coerce(other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other)
        return None

    # -- predicates --------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    @property
    def vars(self):
        return self.num.vars

    def free_symbols(self) -> set[str]:
        out = set()
        for p in (self.num, self.den):
            for exps in p.terms:
                out.update(v for v, e in zip(p.vars, exps) if e)
        return out

    # -- field operations ------------------------------------------------------------
    def __add__(self, other):
        o = RationalFunction._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        o = RationalFunction._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = RationalFunction._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RationalFunction._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = RationalFunction._coerce(other)
        return o.__truediv__(self)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return RationalFunction(self.den, self.num) ** (-e)
        return RationalFunction(self.num**e, self.den**e)

    # -- equality -------------------------------------------------------------------------
    def __eq__(self, other):
        o = RationalFunction._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self):
        c = self.cancel()
        return hash(c.num) if c.den == 1 else hash((c.num, c.den))

    # -- reduction --------------------------------------------------------------------------
    def cancel(self) -> "RationalFunction":
        """Divide out the multivariate gcd (sympy sparse rings)."""
        if self.num.is_zero():
            return RationalFunction(MultiPoly.const(0, self.vars), MultiPoly.const(1, self.vars))
        if self.den.is_const():
            return RationalFunction(self.num * (1 / self.den.const_value()), MultiPoly.const(1, self.vars))
        return RationalFunction(*cancel_common([self.num, self.den]))

    # -- evaluation ------------------------------------------------------------------------------
    def eval(self, point: dict):
        den = self.den.eval(point)
        if den == 0:
            raise ZeroDenominator("denominator vanishes at evaluation point")
        return self.num.eval(point) / den

    def subs(self, mapping: dict) -> "RationalFunction":
        """Evaluation at RationalFunction (or rational) arguments, where
        unmapped symbols stand for themselves, then cancel."""
        point = {v: RationalFunction.var(v) for v in self.vars}
        point.update(mapping)
        return RationalFunction.const(self.eval(point)).cancel()

    # -- serialization ------------------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"num": self.num.to_text(), "den": self.den.to_text()}

    @staticmethod
    def from_json(obj: dict) -> "RationalFunction":
        return RationalFunction(MultiPoly.from_text(obj["num"]), MultiPoly.from_text(obj["den"]))

    def __repr__(self):
        return f"({self.num.to_text()}) / ({self.den.to_text()})"


def _normalize_pair(num: MultiPoly, den: MultiPoly):
    if num.is_zero():
        return num, MultiPoly.const(1, den.vars)
    num, den = _strip_monomial([num, den])
    # scale so den is primitive with positive leading coefficient
    scale = den.content()
    if den.leading()[1] < 0:
        scale = -scale
    if scale != 1:
        inv = 1 / scale
        num = num * inv
        den = den * inv
    return num, den


def _strip_monomial(polys: list[MultiPoly]) -> list[MultiPoly]:
    """Divide same-variable polynomials by the largest monomial dividing
    every nonzero one."""
    strip = None
    for p in polys:
        for exps in p.terms:
            strip = exps if strip is None else tuple(map(min, strip, exps))
    if not strip or not any(strip):
        return polys
    return [
        MultiPoly(p.vars, {tuple(e - s for e, s in zip(exps, strip)): c for exps, c in p.terms.items()})
        for p in polys
    ]


def cancel_common(polys: list[MultiPoly]) -> list[MultiPoly]:
    """Strip common monomial factors, rational content, and the common
    multivariate gcd from a list of polynomials."""
    names = tuple(sorted({v for p in polys for v in p.vars}))
    polys = _strip_monomial([p.extend(names) for p in polys])
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return polys
    num_gcd, den_lcm = 0, 1
    for p in nonzero:
        cont = p.content()
        num_gcd = math.gcd(num_gcd, cont.numerator)
        den_lcm = den_lcm * cont.denominator // math.gcd(den_lcm, cont.denominator)
    scale = Fraction(den_lcm, num_gcd)
    if scale != 1:
        polys = [p * scale for p in polys]
    syms = [None if p.is_zero() else p._to_sym() for p in polys]
    g = None
    for s in syms:
        if s is not None:
            g = s if g is None else g.gcd(s)
            if g.is_one:
                return polys
    return [p if s is None else MultiPoly._from_sym(s.quo(g), names) for p, s in zip(polys, syms)]


def over_common_denominator(fns: list[RationalFunction]) -> tuple[MultiPoly, list[MultiPoly]]:
    """(D, [N_i]) with D the least common multiple of the denominators and
    fns[i] = N_i / D, all in the union of the functions' variables."""
    names = tuple(sorted({v for f in fns for v in f.vars}))
    dens = [f.den.extend(names)._to_sym() for f in fns]
    lcm = dens[0]
    for d in dens[1:]:
        lcm = lcm * d.quo(lcm.gcd(d))
    nums = [f.num.extend(names) * MultiPoly._from_sym(lcm.quo(d), names) for f, d in zip(fns, dens)]
    return MultiPoly._from_sym(lcm, names), nums
