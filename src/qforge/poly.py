"""Sparse multivariate polynomials over Q and their quotients.

A MultiPoly holds integer numerators over one positive common
denominator, in lowest terms (the gcd of the numerators and the
denominator is 1), as an ExactScalar does; so no sum or product pays a
gcd per coefficient.  `nums` maps each monomial, packed into one int, to
its numerator.  The exponent of each variable takes a field of `width`
bits, the first variable in the high bits, so int order is the
lexicographic order of the exponent vectors (Monagan & Pearce, "Sparse
polynomial multiplication and division in Maple 14", 2009).  The width
is a multiple of 8 that keeps the top bit of every field clear, so the
sum of two packed monomials, the monomial of a product, never carries
into the next field; a product that sets a top bit is repacked one byte
wider.  `terms`, the {exponent tuple: Fraction} view, is built only for
readers outside this module.  The variable tuple is always kept sorted
so that mixed-variable arithmetic aligns deterministically.

`eval` is one sum, homogenized per variable: with v_i = n_i / d_i and
D_i the degree in v_i, sum c_e prod n_i^e_i d_i^(D_i - e_i) over den prod
d_i^D_i, the value built once at the end.  int, Fraction and order-1
ExactScalar values enter as ints, cyclotomic ExactScalar values as
numerator vectors and a zero RationalFunction as the int 0.  Any other
RationalFunction value must be a constant times a Laurent monomial,
(n / m) y^A / y^B, as under a family map (TypeError otherwise, as for any
other value): a term's factor of degree e is then the int n^e m^(D - e)
on the packed key e key(A) + (D - e) key(B), so each term's image is one
int on one key and no MultiPoly is multiplied: from the plan of every
variable, the keys are sums and the ints products of per-variable table
entries, taken column by column.  `mod_cyclotomic` reduces one variable
modulo a cyclotomic polynomial by the power table of qforge.exact.

`divide` is exact sparse division on the packed keys by a monomial or a
binomial, the divisors of the ladder of qforge.relations, highest
remainder key first; it returns None at the first remainder term that
the divisor's leading term does not divide (monomial or coefficient).
Over the divisor's primitive integer part the quotient of integer
numerators is integral (Gauss's lemma), so it runs on ints.  Each
remainder key k generates at most the key k - kl + kr, below k, so the
generated keys come out in descending order and a queue of them merges
with the sorted dividend.

`eval_by_power` evaluates the coefficients of the powers of one variable
at a rational point, ints over one denominator, from one plan grouped by
that power.

RationalFunction equality is decided by cross-multiplication against the
zero-polynomial test, never by forced reduction.  `cancel` divides out
the multivariate gcd, found in sympy's sparse rings over ZZ, taking each
quotient from the cofactors that come with the gcd; it is the only use
of sympy, imported on first call.
"""

from __future__ import annotations

import math
import re
from collections import deque
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul, or_
from types import MappingProxyType

from .errors import UnboundSymbol, ZeroDenominator
from .exact import ExactScalar, _make as _exact, _mul_nums, _power_table, euler_phi

RELATION_VARS = ("a", "b", "c", "q", "x")
_TERM = re.compile(r"^\((-?\d+(?:/\d+)?)\)(?:\*(.+))?$")  # (coefficient)*monomial
_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


@lru_cache(maxsize=None)
def _sym_ring(var_names: tuple[str, ...]):
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    R, *_ = ring(",".join(var_names), ZZ)
    return R


def _width(degree: int) -> int:
    """The field width for exponents up to `degree`: a multiple of 8 with
    the top bit clear."""
    return 8 * (degree.bit_length() // 8 + 1)


@lru_cache(maxsize=None)
def _layout(n: int, width: int) -> tuple:
    """(shifts, mask, tops) for n fields of `width` bits: the shift of
    each variable's field, first variable highest, the field mask and the
    top bit of every field."""
    shifts = tuple(width * (n - 1 - i) for i in range(n))
    return shifts, (1 << width) - 1, sum(1 << (s + width - 1) for s in shifts)


def _pack(exps, width: int) -> int:
    key = 0
    for e in exps:
        key = (key << width) | e
    return key


def _unpack(key: int, shifts: tuple, mask: int) -> tuple:
    return tuple([(key >> s) & mask for s in shifts])


class MultiPoly:
    """Polynomial with rational coefficients in a sorted tuple of symbols:
    sum(nums[m] * monomial(m)) / den over the packed monomials m."""

    __slots__ = ("vars", "width", "nums", "den", "_lazy")

    def __init__(self, var_names, terms: dict | None = None):
        var_names = tuple(var_names)
        assert tuple(sorted(var_names)) == var_names, "vars must be sorted"
        items = []
        for exps, coeff in (terms or {}).items():
            if not isinstance(coeff, int):
                coeff = Fraction(coeff)
            if coeff:
                exps = tuple(int(e) for e in exps)
                assert len(exps) == len(var_names)
                assert all(e >= 0 for e in exps)
                items.append((exps, coeff))
        # over the lcm of lowest-terms denominators the numerators share no factor with it
        den = math.lcm(*(c.denominator for _, c in items))
        width = _width(max((max(e, default=0) for e, _ in items), default=0))
        nums = {_pack(e, width): c.numerator * (den // c.denominator) for e, c in items}
        _init(self, var_names, width, nums, den)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):  # pickle and copy without re-reducing
        return _raw, (self.vars, self.width, self.nums, self.den)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(value, var_names=()) -> "MultiPoly":
        value = Fraction(value)
        nums = {0: value.numerator} if value else {}
        return _raw(tuple(sorted(var_names)), 8, nums, value.denominator)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return _raw((name,), 8, {1: 1}, 1)

    # -- views ----------------------------------------------------------------
    def _cached(self, key, build):
        lazy = self._lazy
        if lazy is None:
            lazy = {}
            _set_lazy(self, lazy)
        out = lazy.get(key)
        if out is None:
            out = lazy[key] = build()
        return out

    @property
    def terms(self):
        """Read-only {exponent tuple: Fraction coefficient}, built on first use."""
        def build():
            shifts, mask, _ = _layout(len(self.vars), self.width)
            den = self.den
            return MappingProxyType({_unpack(k, shifts, mask): Fraction(c, den)
                                     for k, c in self.nums.items()})
        return self._cached("terms", build)

    def _degrees(self) -> tuple:
        """(index, degree) of each variable that occurs, built on first use."""
        def build():
            shifts, mask, _ = _layout(len(self.vars), self.width)
            keys = self.nums
            degs = ((i, max([(k >> s) & mask for k in keys], default=0)) for i, s in enumerate(shifts))
            return tuple((i, d) for i, d in degs if d)
        return self._cached("degrees", build)

    # -- alignment ----------------------------------------------------------
    def _relayout(self, var_names: tuple, width: int) -> "MultiPoly":
        """The same polynomial over the sorted superset var_names of its
        variables, with fields `width` >= self.width bits wide."""
        if var_names == self.vars and width == self.width:
            return self
        old, mask, _ = _layout(len(self.vars), self.width)
        new, _, _ = _layout(len(var_names), width)
        pairs = [(s, new[var_names.index(v)]) for v, s in zip(self.vars, old)]
        nums = {}
        for k, c in self.nums.items():
            key = 0
            for so, sn in pairs:
                key |= ((k >> so) & mask) << sn
            nums[key] = c
        return _raw(var_names, width, nums, self.den)

    def extend(self, var_names) -> "MultiPoly":
        var_names = tuple(sorted(set(var_names) | set(self.vars)))
        return self._relayout(var_names, self.width)

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other, self.vars)
        return None

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def is_const(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return Fraction(self.nums.get(0, 0), self.den)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        return dict(self._degrees()).get(self.vars.index(name), 0)

    def leading(self):
        """(exponents, coefficient) under descending lexicographic order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        key = max(self.nums)
        shifts, mask, _ = _layout(len(self.vars), self.width)
        return _unpack(key, shifts, mask), Fraction(self.nums[key], self.den)

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(*_align(self, other), 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.vars, self.width, {k: -c for k, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(*_align(self, other), -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return _product(*_align(self, other))

    __rmul__ = __mul__

    def divide(self, other: "MultiPoly") -> "MultiPoly | None":
        """The exact quotient self / other, or None when other does not
        divide self; ValueError unless other is a monomial or a binomial."""
        if other.is_zero():
            raise ZeroDenominator("division by the zero polynomial")
        if len(other.nums) > 2:
            raise ValueError(f"divide takes a monomial or a binomial, not {other}")
        p, f = _align(self, other)
        if not p.nums:
            return p
        # over the primitive integer part of f the quotient of integer
        # numerators has integer numerators (Gauss's lemma)
        g = math.gcd(*f.nums.values())
        nums = _quotient(p.nums, {k: c // g for k, c in f.nums.items()},
                         _layout(len(p.vars), p.width)[2])
        if nums is None:
            return None
        # a prime of p.den dividing every quotient numerator would divide p's
        out = _raw(p.vars, p.width, nums, p.den)
        return out if f.den == g == 1 else out._scale(f.den, g)

    def mod_cyclotomic(self, name: str, order: int) -> "MultiPoly":
        """self modulo Phi_order(name): each name^e replaced by its residue,
        row e % order of the power table of qforge.exact (name^order is 1
        modulo Phi_order), so name's degree falls below phi(order) and the
        result is 0 exactly when Phi_order(name) divides self."""
        if name not in self.vars:
            return self
        shifts, mask, _ = _layout(len(self.vars), self.width)
        s = shifts[self.vars.index(name)]
        rows = _power_table(order)
        nums: dict[int, int] = {}
        get = nums.get
        for k, c in self.nums.items():
            e = (k >> s) & mask
            for j, t in rows[e % order]:
                key = k + ((j - e) << s)
                nums[key] = get(key, 0) + c * t
        return _lowest(self.vars, self.width, {k: c for k, c in nums.items() if c}, self.den)

    def _scale(self, p: int, q: int) -> "MultiPoly":
        """self * p / q for ints p and q != 0."""
        if q < 0:
            p, q = -p, -q
        nums = {k: c * p for k, c in self.nums.items()} if p else {}
        return _lowest(self.vars, self.width, nums, self.den * q)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = MultiPoly.const(1, self.vars)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, q = _align(self, other)
        return p.den == q.den and p.nums == q.nums

    def __hash__(self):
        return self._cached("hash", self._hash)

    def _hash(self) -> int:
        # == extends both sides to the union of their vars, so hash only
        # the variables that occur, and a constant as its value
        if self.is_const():
            return hash(self.const_value())
        shifts, mask, _ = _layout(len(self.vars), self.width)
        den, names = self.den, self.vars
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(names, _unpack(k, shifts, mask)) if e),
             c if den == 1 else Fraction(c, den))
            for k, c in self.nums.items()
        ))

    # -- evaluation ------------------------------------------------------------------
    def eval(self, point: dict):
        """Value at `point` by the homogenized sum: a Fraction, an
        ExactScalar when a variable that occurs is bound to one, or a
        RationalFunction when one is bound to a nonzero RationalFunction (see
        the module docstring).  TypeError for any other value, or for
        RationalFunction values mixed with ExactScalar ones."""
        degs, names = self._degrees(), self.vars
        missing = [names[i] for i, _ in degs if names[i] not in point]
        if missing:
            raise UnboundSymbol(f"point does not bind {missing}")
        rational, cyclo, monos, order, exact = [], [], [], 1, False
        for i, d in degs:
            v = point[names[i]]
            if isinstance(v, RationalFunction) and v.is_zero():
                v = 0
            if isinstance(v, int):
                rational.append((d, v, 1))
            elif isinstance(v, Fraction):
                rational.append((d, v.numerator, v.denominator))
            elif isinstance(v, ExactScalar):
                exact = True
                if v.order == 1:
                    rational.append((d, v.nums[0], v.den))
                else:
                    cyclo.append((i, d, v))
                    order = math.lcm(order, v.order)
            elif isinstance(v, RationalFunction):
                if len(v.num.nums) != 1 or len(v.den.nums) != 1:
                    raise TypeError(f"cannot evaluate at {names[i]} = {v}, "
                                    "not a constant times a Laurent monomial")
                monos.append((i, d, v))
            else:
                raise TypeError(f"cannot evaluate at a {type(v).__name__} value of {names[i]}")
        if exact and monos:
            raise TypeError("cannot evaluate at a point mixing RationalFunction and ExactScalar values")
        # pows[k][e] = n^e m^(d - e) for the k-th rational value n / m of
        # degree d; vpows the same for the cyclotomic values, as numerator
        # vectors
        pows, den = _rational_powers(rational, self.den)
        if monos:
            return _monomial_image(self._cached((), lambda: self._plan(())), degs, pows, monos, den)
        shape = tuple(i for i, _, _ in cyclo)
        plan = self._cached(shape, lambda: self._plan(shape))
        size = euler_phi(order)
        vpows = []
        for _, d, v in cyclo:
            v = v.embed(order)
            dens = _powers(v.den, d)
            vp = [(1,) + (0,) * (size - 1)]
            for _ in range(d):
                vp.append(_mul_nums(vp[-1], v.nums, order))
            vpows.append([[c * m for c in vec] for vec, m in zip(vp, reversed(dens))])
            den *= dens[d]
        acc = [0] * size
        for exps, s in _sums(plan, pows):
            vec = None
            for vp, e in zip(vpows, exps):
                vec = vp[e] if vec is None else _mul_nums(vec, vp[e], order)
            if vec is None:
                acc[0] += s
            else:
                for j, c in enumerate(vec):
                    acc[j] += s * c
        return _exact(order, acc, den) if exact else Fraction(acc[0], den)

    def eval_by_power(self, name: str, point: dict) -> tuple[dict, int]:
        """({e: n_e}, d) with n_e / d the coefficient of name^e at `point`,
        which binds every other variable that occurs to an int or a
        Fraction: ints over one denominator d > 0 in lowest terms, zero
        ones left out.  One plan, grouped by the power of name, serves
        every point."""
        p = self.extend((name,))
        i, names = p.vars.index(name), p.vars
        degs = [(j, d) for j, d in p._degrees() if j != i]
        missing = [names[j] for j, _ in degs if names[j] not in point]
        if missing:
            raise UnboundSymbol(f"point does not bind {missing}")
        rational = []
        for j, d in degs:
            v = Fraction(point[names[j]])
            rational.append((d, v.numerator, v.denominator))
        pows, den = _rational_powers(rational, p.den)
        plan = p._cached((i,), lambda: p._plan((i,)))
        nums = {e: s for (e,), s in _sums(plan, pows)}
        g = math.gcd(den, *nums.values())
        return {e: s // g for e, s in nums.items()}, den // g

    def _plan(self, shape: tuple) -> list:
        """The layout of the integer sum when the variables at the indices
        `shape` are bound to cyclotomic values (or split off as powers, in
        eval_by_power): one (exponents of those variables, numerators,
        exponent column of each other variable that occurs) per distinct
        exponents of those variables."""
        shifts, mask, _ = _layout(len(self.vars), self.width)
        other = [shifts[i] for i in shape]
        rational = [shifts[i] for i, _ in self._degrees() if i not in shape]
        groups: dict[tuple, list] = {}
        for k, c in self.nums.items():
            groups.setdefault(_unpack(k, other, mask), []).append((c, _unpack(k, rational, mask)))
        return [(exps, tuple(c for c, _ in terms), tuple(zip(*(e for _, e in terms))))
                for exps, terms in groups.items()]

    # -- sympy bridge ----------------------------------------------------------------
    def _to_sym(self):
        """den * self, an integer polynomial, in sympy's ZZ ring over the
        variables (over ("a",) when there are none)."""
        R = _sym_ring(self.vars or ("a",))
        shifts, mask, _ = _layout(len(self.vars) or 1, self.width)  # a constant's key is 0
        return R.dtype({_unpack(k, shifts, mask): c for k, c in self.nums.items()})

    @staticmethod
    def _from_sym(sym_poly, var_names):
        """The MultiPoly over var_names of a polynomial of sympy's ZZ ring."""
        width = _width(max((max(m) for m in sym_poly), default=0))
        return _raw(tuple(var_names), width, {_pack(m, width): int(c) for m, c in sym_poly.items()}, 1)

    # -- text format ---------------------------------------------------------------------
    def to_text(self) -> str:
        """Canonical term-ordered text, e.g. `(-1)*a*b*x + c`."""
        if self.is_zero():
            return "0"
        shifts, mask, _ = _layout(len(self.vars), self.width)
        parts = []
        for key in sorted(self.nums, reverse=True):
            coeff = Fraction(self.nums[key], self.den)
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, _unpack(key, shifts, mask)) if e
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
        parsed = []
        for part in text.split(" + "):
            part = part.strip()
            m = _TERM.match(part)
            if m:
                coeff = Fraction(m.group(1)) if "/" in m.group(1) else int(m.group(1))
                mono = m.group(2) or ""
            else:
                coeff, mono = 1, part
            exps: dict[str, int] = {}
            if mono:
                for factor in mono.split("*"):
                    fm = _FACTOR.match(factor)
                    if not fm:
                        raise ValueError(f"bad monomial factor {factor!r}")
                    exps[fm.group(1)] = exps.get(fm.group(1), 0) + int(fm.group(2) or 1)
            parsed.append((exps, coeff))
        names = tuple(sorted({v for exps, _ in parsed for v in exps}))
        terms: dict = {}
        for exps, coeff in parsed:
            key = tuple(exps.get(v, 0) for v in names)
            terms[key] = terms.get(key, 0) + coeff
        return MultiPoly(names, terms)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


_set_vars = MultiPoly.vars.__set__
_set_width = MultiPoly.width.__set__
_set_nums = MultiPoly.nums.__set__
_set_den = MultiPoly.den.__set__
_set_lazy = MultiPoly._lazy.__set__


def _init(out: MultiPoly, var_names: tuple, width: int, nums: dict, den: int) -> MultiPoly:
    _set_vars(out, var_names)
    _set_width(out, width)
    _set_nums(out, nums)
    _set_den(out, den)
    _set_lazy(out, None)
    return out


def _raw(var_names: tuple, width: int, nums: dict, den: int) -> MultiPoly:
    """The polynomial nums/den: nonzero numerators, in lowest terms, den > 0,
    every exponent below 2^(width - 1)."""
    return _init(object.__new__(MultiPoly), var_names, width, nums, den)


def _lowest(var_names: tuple, width: int, nums: dict, den: int) -> MultiPoly:
    """The polynomial nums/den for den > 0 and nonzero numerators, put in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    return _raw(var_names, width, nums, den)


def _align(*polys: MultiPoly) -> list[MultiPoly]:
    """The polynomials over the union of their variables, with one field width."""
    p = polys[0]
    if all(q.vars == p.vars and q.width == p.width for q in polys):
        return list(polys)
    names = tuple(sorted({v for q in polys for v in q.vars}))
    width = max(q.width for q in polys)
    return [q._relayout(names, width) for q in polys]


def _sum(p: MultiPoly, q: MultiPoly, sign: int) -> MultiPoly:
    """p + sign * q for aligned p and q, sign = 1 or -1."""
    if p.den == q.den:
        fp = fq = 1
        den = p.den
    else:
        den = math.lcm(p.den, q.den)
        fp, fq = den // p.den, den // q.den
    nums = dict(p.nums) if fp == 1 else {k: c * fp for k, c in p.nums.items()}
    get = nums.get
    fq *= sign
    for k, c in q.nums.items():
        s = get(k, 0) + c * fq
        if s:
            nums[k] = s
        else:
            del nums[k]
    return _lowest(p.vars, p.width, nums, den)


def _product(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p * q for aligned p and q: each field of a monomial sum stays below
    2^width, and a sum that sets a field's top bit widens the fields."""
    if len(p.nums) > len(q.nums):
        p, q = q, p
    nums: dict[int, int] = {}
    get = nums.get
    items = list(q.nums.items())
    for k1, c1 in p.nums.items():
        for k2, c2 in items:
            k = k1 + k2
            nums[k] = get(k, 0) + c1 * c2
    nums = {k: c for k, c in nums.items() if c}
    out = _lowest(p.vars, p.width, nums, p.den * q.den)
    if reduce(or_, nums, 0) & _layout(len(p.vars), p.width)[2]:
        out = out._relayout(out.vars, out.width + 8)
    return out


def _quotient(nums: dict, fnums: dict, tops: int) -> dict | None:
    """The integer numerators of nums / fnums, a monomial cl m_l or a
    binomial cl m_l + cr m_r, on one packed layout (`tops` the top bit of
    every field), or None when the division leaves a remainder: sparse
    division, highest remainder key first.  The dividend's keys in
    descending order merge with a queue of the keys the division
    generates, k - kl + kr from remainder key k, which come out descending
    too."""
    (kl, cl), *rest = sorted(fnums.items(), reverse=True)
    keys = sorted(nums, reverse=True)
    keys.append(-1)  # below every key
    (kr, cr), = rest or ((0, 0),)
    queue = deque()
    out = {}
    i = 0
    while True:
        k = keys[i]
        if queue and queue[0][0] >= k:
            g, c = queue.popleft()
            if g == k:
                c += nums[k]
                i += 1
            k = g
        elif k < 0:
            return out
        else:
            c = nums[k]
            i += 1
        if not c:
            continue
        # kl divides k when subtracting it borrows from no field's top bit
        if ((k | tops) - kl) & tops != tops:
            return None
        t, r = divmod(c, cl)
        if r:
            return None
        k -= kl
        out[k] = t
        if rest:
            key = k + kr
            if key & tops:  # a field past any exponent of a true quotient times f
                return None
            queue.append((key, -t * cr))


def _rational_powers(rational: list, den: int):
    """(pows, den times every m^d): pows[k][e] = n^e m^(d - e) for the
    k-th (d, n, m) of `rational`, a value n / m of degree d."""
    pows = []
    for d, n, m in rational:
        dens = _powers(m, d)
        pows.append([a * b for a, b in zip(_powers(n, d), reversed(dens))])
        den *= dens[d]
    return pows, den


def _sums(plan: list, pows: list):
    """(exponents of the other values, int sum) of each group of an eval
    plan whose sum over the rational values' power tables is not 0."""
    for exps, coeffs, cols in plan:
        s = coeffs
        for pw, col in zip(pows, cols):
            s = map(mul, s, map(pw.__getitem__, col))
        s = sum(s)
        if s:
            yield exps, s


def _monomial_image(plan: list, degs: tuple, pows: list, monos: list, den: int) -> "RationalFunction":
    """The homogenized sum at RationalFunction values that are each a
    constant times a Laurent monomial (see the module docstring), over
    m^D y^(D B) per value, from the plan of every variable (`_plan(())`,
    its columns in `degs` order): each term's packed key is the sum and
    its int the product of its columns' entries in per-variable tables,
    the keys in fields wide enough for the largest exponent any key can
    reach."""
    names = tuple(sorted({s for _, _, v in monos for s in v.vars}))
    parts, top = [], dict.fromkeys(names, 0)
    for i, d, v in monos:
        ((kn, cn),), ((km, cm),) = v.num.nums.items(), v.den.nums.items()
        n, m = cn * v.den.den, cm * v.num.den
        if m < 0:
            n, m = -n, -m
        ea, eb = (dict(zip(v.vars, _unpack(k, *_layout(len(v.vars), p.width)[:2])))
                  for k, p in ((kn, v.num), (km, v.den)))
        for s in v.vars:
            top[s] += d * max(ea[s], eb[s])
        parts.append((i, d, n, m, ea, eb))
    width = _width(max(top.values(), default=0))
    at = dict(zip(names, _layout(len(names), width)[0]))
    tables, dkey = {}, 0
    for i, d, n, m, ea, eb in parts:
        ka, kb = (sum(e << at[s] for s, e in ex.items()) for ex in (ea, eb))
        dens = _powers(m, d)
        tables[i] = ([e * ka + (d - e) * kb for e in range(d + 1)],
                     [a * b for a, b in zip(_powers(n, d), reversed(dens))])
        den *= dens[d]
        dkey += d * kb
    ((_, coeffs, cols),), rational = plan, iter(pows)
    keys = None
    for (i, _), col in zip(degs, cols):
        ktab, ctab = tables.get(i) or (None, next(rational))
        coeffs = map(mul, coeffs, map(ctab.__getitem__, col))
        if ktab is not None:
            ks = map(ktab.__getitem__, col)
            keys = ks if keys is None else map(add, keys, ks)
    nums: dict[int, int] = {}
    get = nums.get
    for k, c in zip(keys, coeffs):
        nums[k] = get(k, 0) + c
    nums = {k: c for k, c in nums.items() if c}
    return RationalFunction(_lowest(names, width, nums, den), _raw(names, width, {dkey: 1}, 1))


def _powers(v: int, d: int) -> list[int]:
    """[v^0, v^1, ..., v^d]."""
    out = [1]
    for _ in range(d):
        out.append(out[-1] * v)
    return out


def _fmt_frac(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class RationalFunction:
    """Quotient of two MultiPolys with nonzero denominator.

    Stored without forced GCD reduction; `normalize` fixes the canonical
    sign (positive leading denominator coefficient) and strips rational
    content and common monomial factors.  `cancel` additionally divides
    out the multivariate gcd.  Equality is exact via cross-multiplication,
    and a quotient is unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, normalize: bool = True):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        num, den = _align(num, den)
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
        return {p.vars[i] for p in (self.num, self.den) for i, _ in p._degrees()}

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
        return NotImplemented if o is None else o.__truediv__(self)

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

    __hash__ = None  # a hash agreeing with == would need the gcd-reduced form of cancel

    # -- reduction --------------------------------------------------------------------------
    def cancel(self) -> "RationalFunction":
        """Divide out the multivariate gcd, in sympy's sparse rings over ZZ:
        the quotients are the cofactors that come with the gcd."""
        num, den = self.num, self.den
        if num.is_zero():
            return RationalFunction(MultiPoly.const(0, self.vars), MultiPoly.const(1, self.vars))
        if den.is_const():
            return RationalFunction(num * (1 / den.const_value()), MultiPoly.const(1, self.vars))
        # num / den = (num.den * num) den.den / ((den.den * den) num.den)
        _, cn, cd = num._to_sym().cofactors(den._to_sym())
        return RationalFunction(MultiPoly._from_sym(cn, num.vars)._scale(den.den, 1),
                                MultiPoly._from_sym(cd, num.vars)._scale(num.den, 1))

    # -- evaluation ------------------------------------------------------------------------------
    def eval(self, point: dict):
        den = self.den.eval(point)
        if den == 0:
            raise ZeroDenominator("denominator vanishes at evaluation point")
        return self.num.eval(point) / den

    # -- serialization ------------------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"num": self.num.to_text(), "den": self.den.to_text()}

    @staticmethod
    def from_json(obj: dict) -> "RationalFunction":
        return RationalFunction(MultiPoly.from_text(obj["num"]), MultiPoly.from_text(obj["den"]))

    def __repr__(self):
        return f"({self.num.to_text()}) / ({self.den.to_text()})"


def _normalize_pair(num: MultiPoly, den: MultiPoly):
    """(num, den) over den's monomial gcd and content, den's leading
    coefficient made positive; num and den share their layout."""
    if num.is_zero():
        return num, MultiPoly.const(1, den.vars)
    num, den = _strip_monomial([num, den])
    # scale by 1 / content, negated for a negative leading coefficient
    g = math.gcd(*den.nums.values())
    if den.nums[max(den.nums)] < 0:
        g = -g
    if g != 1 or den.den != 1:
        num, den = num._scale(den.den, g), den._scale(den.den, g)
    return num, den


def _strip_monomial(polys: list[MultiPoly]) -> list[MultiPoly]:
    """Divide polynomials of one layout by the largest monomial dividing
    every nonzero one."""
    if any(0 in p.nums for p in polys):
        return polys
    keys = [k for p in polys for k in p.nums]
    if not keys:
        return polys
    shifts, mask, _ = _layout(len(polys[0].vars), polys[0].width)
    strip = 0
    for s in shifts:
        strip |= min([(k >> s) & mask for k in keys]) << s
    if not strip:
        return polys
    return [_raw(p.vars, p.width, {k - strip: c for k, c in p.nums.items()}, p.den) for p in polys]
