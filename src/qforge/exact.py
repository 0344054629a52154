"""Exact ground-field arithmetic: rationals and cyclotomic field elements.

An ExactScalar is an element of Q(zeta_n), stored as the unique residue of
a polynomial in zeta_n modulo the n-th cyclotomic polynomial Phi_n.  Order
n = 1 is the plain rational field.  Mixed orders embed eagerly into the
lcm order, so every binary operation is closed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DivisionByZero

_CYCLO_CACHE: dict[int, tuple[Fraction, ...]] = {}


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
    inv_lead = 1 / g[-1]
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


class ExactScalar:
    """Element of Q(zeta_order); order 1 is a plain rational.

    Immutable; all arithmetic is exact and closed within the lcm order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be a positive integer")
        coeffs = [Fraction(c) for c in coeffs]
        deg = euler_phi(order)
        if len(coeffs) != deg:
            coeffs = list(_reduce_mod_phi(coeffs, order))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(v) -> "ExactScalar":
        return ExactScalar(1, [Fraction(v)])

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
        raw = [Fraction(0)] * (len(self.coeffs) * k + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * k] += c
        return ExactScalar(target, _reduce_mod_phi(raw, target))

    @staticmethod
    def _align(x, y):
        x = ExactScalar.coerce(x)
        y = ExactScalar.coerce(y)
        if x.order == y.order:
            return x, y
        m = math.lcm(x.order, y.order)
        return x.embed(m), y.embed(m)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        try:
            x, y = ExactScalar._align(self, other)
        except TypeError:
            return NotImplemented
        return ExactScalar(x.order, [a + b for a, b in zip(x.coeffs, y.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        try:
            x, y = ExactScalar._align(self, other)
        except TypeError:
            return NotImplemented
        return ExactScalar(x.order, [a - b for a, b in zip(x.coeffs, y.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        try:
            x, y = ExactScalar._align(self, other)
        except TypeError:
            return NotImplemented
        prod = _poly_mul(list(x.coeffs), list(y.coeffs))
        return ExactScalar(x.order, _reduce_mod_phi(prod, x.order))

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse via the extended Euclidean algorithm on
        (self, Phi_order); total for every nonzero element since Phi_n is
        irreducible over Q."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.order == 1:
            return ExactScalar(1, [1 / self.coeffs[0]])
        r0, r1 = list(cyclotomic_poly(self.order)), _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while True:
            q, r = _poly_divmod(r0, r1)
            if not r:
                break
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
        # r1 is the (constant) gcd; divide the Bezout coefficient by it
        assert len(r1) == 1, "Phi_n irreducible: gcd must be a unit"
        inv = [c / r1[0] for c in s1]
        return ExactScalar(self.order, _reduce_mod_phi(inv, self.order))

    def __truediv__(self, other):
        try:
            y = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self * y.inverse()

    def __rtruediv__(self, other):
        return ExactScalar.coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = ExactScalar.from_rational(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # the reduced representation is unique: a rational r is (r, 0, ..., 0)
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        if isinstance(other, ExactScalar):
            x, y = ExactScalar._align(self, other)
            return x.coeffs == y.coeffs
        return NotImplemented

    def __hash__(self):
        # equal values in different fields must hash equal, so hash the
        # representative in the smallest field that holds the value
        low = self._minimal_field()
        if low.order == 1:
            return hash(low.coeffs[0])
        return hash((low.order, low.coeffs))

    def _minimal_field(self) -> "ExactScalar":
        """The same value in Q(zeta_d) for the least d that holds it (d
        divides the order, since Q(zeta_n) meets Q(zeta_d) in
        Q(zeta_gcd(n, d)))."""
        if self.is_rational():
            return ExactScalar(1, self.coeffs[:1])
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


def _preimage(v: ExactScalar, d: int):
    """Coefficients c with sum c_j zeta_d^j = v, or None when v is not in
    Q(zeta_d); solved by Gauss-Jordan elimination over Q on the images of
    the basis 1, zeta_d, ..., zeta_d^(phi(d)-1) in Q(zeta_order)."""
    cols = [ExactScalar(d, [0] * j + [1]).embed(v.order).coeffs for j in range(euler_phi(d))]
    # one row per coordinate of Q(zeta_order): [image coefficients | v]
    rows = [[col[i] for col in cols] + [v.coeffs[i]] for i in range(len(v.coeffs))]
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
    return ExactScalar(order, _reduce_mod_phi([Fraction(c) for c in coeffs], order))


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
