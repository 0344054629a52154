"""Exact ground-field arithmetic: rationals and cyclotomic field elements.

An ExactScalar is an element of Q(zeta_n), stored as the unique residue of
a polynomial in zeta_n modulo the n-th cyclotomic polynomial Phi_n.  Order
n = 1 is the plain rational field.

The residue is held as phi(n) integer numerators over one positive common
denominator, in lowest terms (the gcd of the numerators and the
denominator is 1), as FLINT's nf_elem holds a number field element; so no
operation pays a gcd per coefficient.  `.coeffs` is the same residue as a
tuple of Fractions.

Within one order a product is an integer schoolbook product of degree at
most 2 phi(n) - 2, folded back with the order's table of x^k mod Phi_n for
phi(n) <= k <= 2 phi(n) - 2.  Phi_n is monic with integer coefficients, so
the rows are integer vectors; each order's table is built once.  A
rational operand (an int, a Fraction or an order-1 ExactScalar) scales or
shifts the numerators directly.  Only elements of two different orders
above 1 embed, into the lcm order, so every binary operation is closed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DivisionByZero

_CYCLO_CACHE: dict[int, tuple[Fraction, ...]] = {}
_FOLD_CACHE: dict[int, tuple] = {}


def _poly_trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mul(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
    return _poly_trim(out)


def _poly_sub(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] -= c
    return _poly_trim(out)


def _poly_divmod(f: list[Fraction], g: list[Fraction]):
    """Quotient and remainder of f by g over Q; g must be nonzero."""
    f = _poly_trim(list(f))
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    inv_lead = 1 / Fraction(g[-1])
    while len(f) >= len(g):
        shift = len(f) - len(g)
        coef = f[-1] * inv_lead
        q[shift] = coef
        for i, gi in enumerate(g):
            f[shift + i] -= coef * gi
        _poly_trim(f)
    return _poly_trim(q), f


def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def cyclotomic_poly(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, low degree first, computed by dividing
    x^n - 1 by the product of Phi_d over proper divisors d."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n < 1:
        raise ValueError("order must be >= 1")
    xn1 = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    quo, rem = _poly_divmod(xn1, den)
    assert not rem, "cyclotomic division must be exact"
    result = tuple(quo)
    _CYCLO_CACHE[n] = result
    return result


def _reduce_mod_phi(coeffs: list[Fraction], order: int) -> tuple[Fraction, ...]:
    phi = list(cyclotomic_poly(order))
    _, rem = _poly_divmod(_poly_trim(list(coeffs)), phi)
    deg = euler_phi(order)
    rem = rem + [Fraction(0)] * (deg - len(rem))
    return tuple(rem[:deg])


def _fold_table(order: int) -> tuple:
    """Row k - phi(order) is x^k mod Phi_order for phi(order) <= k <=
    2 phi(order) - 2, as the (index, integer coefficient) pairs of its
    nonzero entries."""
    table = _FOLD_CACHE.get(order)
    if table is None:
        deg = euler_phi(order)
        rows = [_reduce_mod_phi([0] * k + [1], order) for k in range(deg, 2 * deg - 1)]
        assert all(c.denominator == 1 for row in rows for c in row), "Phi_n is monic over Z"
        table = tuple(tuple((j, int(c)) for j, c in enumerate(row) if c) for row in rows)
        _FOLD_CACHE[order] = table
    return table


def _as_fraction(c) -> Fraction:
    if isinstance(c, (float, complex)):
        raise TypeError(f"inexact coefficient {c!r}: ExactScalar takes ints and Fractions")
    return Fraction(c)


def _ratio(v):
    """(p, q) with v = p/q and q > 0 for an int, a Fraction or an order-1
    ExactScalar; None for anything else."""
    if isinstance(v, ExactScalar):
        return (v.nums[0], v.den) if v.order == 1 else None
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    return None


class ExactScalar:
    """Element of Q(zeta_order); order 1 is a plain rational.

    Immutable; all arithmetic is exact and closed within the lcm order.
    The value is sum(nums[j] zeta^j) / den with den > 0 and
    gcd(*nums, den) = 1.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be a positive integer")
        coeffs = [_as_fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            coeffs = _reduce_mod_phi(coeffs, order)
        # over the lcm of lowest-terms denominators the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in coeffs))
        _set_order(self, order)
        _set_nums(self, tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(v) -> "ExactScalar":
        v = _as_fraction(v)
        return _raw(1, (v.numerator,), v.denominator)

    @staticmethod
    def zeta(order: int) -> "ExactScalar":
        """The primitive root zeta_order itself."""
        if order == 1:
            return ExactScalar(1, [Fraction(1)])
        if order == 2:
            return ExactScalar(2, [Fraction(-1)])
        coeffs = [Fraction(0)] * euler_phi(order)
        coeffs[1] = Fraction(1)
        return ExactScalar(order, coeffs)

    @staticmethod
    def coerce(v) -> "ExactScalar":
        if isinstance(v, ExactScalar):
            return v
        if isinstance(v, (int, Fraction)):
            return ExactScalar.from_rational(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to ExactScalar")

    # -- order embedding ----------------------------------------------
    def embed(self, target: int) -> "ExactScalar":
        if target == self.order:
            return self
        if target % self.order != 0:
            raise ValueError("target order must be a multiple")
        k = target // self.order
        raw = [0] * (len(self.nums) * k + 1)
        for i, c in enumerate(self.nums):
            raw[i * k] = c
        return _make(target, [int(c) for c in _reduce_mod_phi(raw, target)], self.den)

    @staticmethod
    def _align(x: "ExactScalar", y: "ExactScalar"):
        m = math.lcm(x.order, y.order)
        return x.embed(m), y.embed(m)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        r = _ratio(other)
        if r is not None:
            return _shift(self, *r)
        return _sum(self, other) if isinstance(other, ExactScalar) else NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _neg(self)

    def __sub__(self, other):
        r = _ratio(other)
        if r is not None:
            return _shift(self, -r[0], r[1])
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return _sum(self, _neg(other))

    def __rsub__(self, other):
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return _shift(_neg(self), *r)

    def __mul__(self, other):
        r = _ratio(other)
        if r is not None:
            return _scale(self, *r)
        return _product(self, other) if isinstance(other, ExactScalar) else NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse via the extended Euclidean algorithm on
        (numerators, Phi_order); total for every nonzero element since
        Phi_n is irreducible over Q."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if len(self.nums) == 1:
            return _make(self.order, (self.den,), self.nums[0])
        r0, r1 = list(cyclotomic_poly(self.order)), _poly_trim(list(self.nums))
        s0, s1 = [], [Fraction(1)]
        while True:
            q, r = _poly_divmod(r0, r1)
            if not r:
                break
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
        # r1 is the (constant) gcd; divide the Bezout coefficient by it
        assert len(r1) == 1, "Phi_n irreducible: gcd must be a unit"
        scale = Fraction(self.den) / r1[0]
        return ExactScalar(self.order, [c * scale for c in s1])

    def __truediv__(self, other):
        r = _ratio(other)
        if r is not None:
            if not r[0]:
                raise DivisionByZero("inverse of zero")
            return _scale(self, r[1], r[0])
        return _product(self, other.inverse()) if isinstance(other, ExactScalar) else NotImplemented

    def __rtruediv__(self, other):
        r = _ratio(other)
        return NotImplemented if r is None else _scale(self.inverse(), *r)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = _ONE
        base = self
        while e:
            if e & 1:
                out = _product(out, base)
            e >>= 1
            if e:
                base = _product(base, base)
        return out

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other):
        r = _ratio(other)
        if r is not None:
            # the reduced representation is unique: p/q is (p, 0, ..., 0) / q
            return self.nums[0] == r[0] and self.den == r[1] and not any(self.nums[1:])
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.order == 1:
            return other == self
        x, y = (self, other) if self.order == other.order else ExactScalar._align(self, other)
        return x.nums == y.nums and x.den == y.den

    def __hash__(self):
        # equal values in different fields must hash equal, so hash the
        # representative in the smallest field that holds the value
        low = self._minimal_field()
        if low.order == 1:
            return hash(Fraction(low.nums[0], low.den))
        return hash((low.order, low.coeffs))

    def _minimal_field(self) -> "ExactScalar":
        """The same value in Q(zeta_d) for the least d that holds it (d
        divides the order, since Q(zeta_n) meets Q(zeta_d) in
        Q(zeta_gcd(n, d)))."""
        if self.is_rational():
            return _raw(1, self.nums[:1], self.den)
        for d in range(3, self.order):
            if self.order % d == 0:
                coeffs = _preimage(self, d)
                if coeffs is not None:
                    return ExactScalar(d, coeffs)
        return self

    # -- text format -----------------------------------------------------
    def __repr__(self):
        return f"ExactScalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    # -- numeric embedding -------------------------------------------------
    def to_complex(self, prec: int = 113):
        """Evaluate at zeta_order = exp(2*pi*i/order) in mpmath floats."""
        import mpmath

        with mpmath.workprec(prec + 16):
            z = mpmath.exp(2j * mpmath.pi / self.order)
            acc = mpmath.mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * z + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
            return +acc


_set_order = ExactScalar.order.__set__
_set_nums = ExactScalar.nums.__set__
_set_den = ExactScalar.den.__set__


def _raw(order: int, nums: tuple, den: int) -> ExactScalar:
    """The element nums/den, which must already be in lowest terms with den > 0."""
    out = object.__new__(ExactScalar)
    _set_order(out, order)
    _set_nums(out, nums)
    _set_den(out, den)
    return out


def _make(order: int, nums, den: int) -> ExactScalar:
    """The element nums/den for any nonzero den, put in lowest terms."""
    g = math.gcd(*nums, den)
    if den < 0:
        g = -g
    if g != 1:
        return _raw(order, tuple([c // g for c in nums]), den // g)
    return _raw(order, tuple(nums), den)


_ONE = _raw(1, (1,), 1)


def _neg(x: ExactScalar) -> ExactScalar:
    return _raw(x.order, tuple([-c for c in x.nums]), x.den)


def _shift(x: ExactScalar, p: int, q: int) -> ExactScalar:
    """x + p/q, q > 0."""
    nums, den = x.nums, x.den
    if q == 1:  # adding a multiple of den keeps the gcd at 1
        return _raw(x.order, (nums[0] + p * den,) + nums[1:], den)
    return _make(x.order, [nums[0] * q + p * den] + [c * q for c in nums[1:]], den * q)


def _scale(x: ExactScalar, p: int, q: int) -> ExactScalar:
    """x * p/q, q != 0."""
    return _make(x.order, [c * p for c in x.nums], x.den * q)


def _sum(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    """x + y; y is of x's order or of an order above 1 (callers pass an
    order-1 y through `_ratio`)."""
    if x.order != y.order:
        if x.order == 1:
            return _shift(y, x.nums[0], x.den)
        x, y = ExactScalar._align(x, y)
    dx, dy = x.den, y.den
    if dx == dy:
        return _make(x.order, [a + b for a, b in zip(x.nums, y.nums)], dx)
    return _make(x.order, [a * dy + b * dx for a, b in zip(x.nums, y.nums)], dx * dy)


def _product(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    """x * y, with y as in `_sum`."""
    if x.order != y.order:
        if x.order == 1:
            return _scale(y, x.nums[0], x.den)
        x, y = ExactScalar._align(x, y)
    f, g = x.nums, y.nums
    deg = len(f)
    prod = [0] * (2 * deg - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g, i):
                prod[j] += fi * gj
    out = prod[:deg]
    for row, c in zip(_fold_table(x.order), prod[deg:]):
        if c:
            for j, t in row:
                out[j] += c * t
    return _make(x.order, out, x.den * y.den)


def _preimage(v: ExactScalar, d: int):
    """Coefficients c with sum c_j zeta_d^j = v, or None when v is not in
    Q(zeta_d); solved by Gauss-Jordan elimination over Q on the images of
    the basis 1, zeta_d, ..., zeta_d^(phi(d)-1) in Q(zeta_order)."""
    cols = [ExactScalar(d, [0] * j + [1]).embed(v.order).coeffs for j in range(euler_phi(d))]
    # one row per coordinate of Q(zeta_order): [image coefficients | v]
    vc = v.coeffs
    rows = [[col[i] for col in cols] + [vc[i]] for i in range(len(vc))]
    n = len(cols)
    pivots = []
    for j in range(n):
        piv = next((r for r in range(len(pivots), len(rows)) if rows[r][j] != 0), None)
        if piv is None:
            continue
        k = len(pivots)
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = 1 / rows[k][j]
        rows[k] = [c * inv for c in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][j] != 0:
                f = rows[r][j]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
        pivots.append(j)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    out = [Fraction(0)] * n
    for k, j in enumerate(pivots):
        out[j] = rows[k][-1]
    return out


def cyclo_normalize(coeffs, order: int) -> ExactScalar:
    """Reduce a polynomial in zeta_order (low degree first) modulo
    Phi_order to the unique representative; idempotent."""
    return ExactScalar(order, coeffs)


def field_div(x, y) -> ExactScalar:
    """Exact quotient x / y; raises DivisionByZero when y = 0."""
    y = ExactScalar.coerce(y)
    if y.is_zero():
        raise DivisionByZero("field_div by zero")
    return ExactScalar.coerce(x) * y.inverse()


# -- textual scalar format ---------------------------------------------------
_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_CYC_RE = re.compile(r"^cyclo\((\d+)\)\[(.*)\]$")


def format_rational(v: Fraction) -> str:
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def parse_rational(s: str) -> Fraction:
    m = _RAT_RE.match(s.strip())
    if not m:
        raise ValueError(f"bad rational literal: {s!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def format_scalar(v: ExactScalar) -> str:
    """`p/q` for rationals (lowest terms, sign on the numerator),
    `cyclo(n)[c0, c1, ...]` otherwise; bit-exact round-trip."""
    v = ExactScalar.coerce(v)
    if v.order == 1:
        return format_rational(v.coeffs[0])
    inner = ", ".join(format_rational(c) for c in v.coeffs)
    return f"cyclo({v.order})[{inner}]"


def parse_scalar(s: str) -> ExactScalar:
    s = s.strip()
    m = _CYC_RE.match(s)
    if m:
        order = int(m.group(1))
        body = m.group(2).strip()
        coeffs = [parse_rational(t) for t in body.split(",")] if body else []
        deg = euler_phi(order)
        if len(coeffs) != deg:
            raise ValueError(f"cyclo({order}) needs {deg} coefficients")
        return ExactScalar(order, coeffs)
    return ExactScalar.from_rational(parse_rational(s))
