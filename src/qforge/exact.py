"""Exact ground-field arithmetic: rationals and cyclotomic field elements.

An ExactScalar is an element of Q(zeta_n), stored as the unique residue of
a polynomial in zeta_n modulo the n-th cyclotomic polynomial Phi_n.  Order
n = 1 is the plain rational field.

The residue is held as phi(n) integer numerators over one positive common
denominator, in lowest terms (the gcd of the numerators and the
denominator is 1), as FLINT's nf_elem holds a number field element; so no
operation pays a gcd per coefficient.  `.coeffs` is the same residue as a
tuple of Fractions.

Phi_n is monic with integer coefficients, so each power zeta^e has an
integer residue; each order's table of them, for 0 <= e < n, is built
once.  Since zeta^n = 1, row e % n of that table reduces any power: it
folds back an integer schoolbook product, a constructor input of any
length, an element embedded into a multiple order, and a Galois conjugate
sigma_k(zeta) = zeta^k.  The inverse is the product P of the conjugates
sigma_k(x), k != 1 a unit mod n, over the norm N(x) = x P, a nonzero
rational.  A rational operand (an int, a Fraction or an order-1
ExactScalar) scales or shifts the numerators directly.  Only elements of
two different orders above 1 embed, into the lcm order, so every binary
operation is closed.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import cache

from .errors import DivisionByZero


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


@cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first: x^n - 1 divided
    exactly by the monic Phi_d of each proper divisor d of n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            g = cyclotomic_poly(d)
            quo = [0] * (len(f) - len(g) + 1)
            for k in reversed(range(len(quo))):
                c = quo[k] = f[k + len(g) - 1]
                if c:
                    for i, gi in enumerate(g, k):
                        f[i] -= c * gi
            assert not any(f), "cyclotomic division must be exact"
            f = quo
    return tuple(f)


@cache
def _power_table(order: int) -> tuple:
    """Row e is zeta^e mod Phi_order for 0 <= e < order, as the (index,
    integer coefficient) pairs of its nonzero entries."""
    phi = cyclotomic_poly(order)
    row = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(order):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        # zeta * row, with zeta^phi(order) replaced by zeta^phi(order) - Phi_order
        top, row = row[-1], [0] + row[:-1]
        if top:
            row = [c - top * p for c, p in zip(row, phi)]
    return tuple(rows)


@cache
def _traces(order: int) -> tuple[int, ...]:
    """Tr(zeta^j) for 0 <= j < phi(order).  The sum of the conjugates
    zeta^(jk), k a unit mod the order, is rational, so the trace is the
    sum of the 0th entries of the rows jk % order."""
    rows = _power_table(order)
    units = [k for k in range(1, order + 1) if math.gcd(k, order) == 1]
    return tuple(sum(c for k in units for i, c in rows[j * k % order] if i == 0)
                 for j in range(len(units)))


def _fold(raw: list[int], order: int, deg: int) -> list[int]:
    """The deg = phi(order) numerators of sum(raw[e] zeta^e); folds the
    list raw in place and returns it."""
    if len(raw) <= deg:
        raw += [0] * (deg - len(raw))
        return raw
    table = _power_table(order)
    for e in range(deg, len(raw)):
        c = raw[e]
        if c:
            for j, t in table[e % order]:
                raw[j] += c * t
    del raw[deg:]
    return raw


def _mul_nums(f: tuple, g: tuple, order: int) -> list[int]:
    """The numerators of the product of two integer residues of one order."""
    deg = len(f)
    prod = [0] * (2 * deg - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g, i):
                prod[j] += fi * gj
    return _fold(prod, order, deg)


def _conjugates(nums, order: int) -> tuple[list[int], int]:
    """(P, N) for the nonzero integer residue x = sum(nums[j] zeta^j): the
    numerators of the product P of the Galois conjugates sigma_k(x),
    zeta -> zeta^k, over the units k != 1 mod the order, and the norm
    N = x P, a nonzero int.  Orders 1 and 2 have no such k: P = 1."""
    prod = None
    for k in range(2, order):
        if math.gcd(k, order) == 1:
            raw = [0] * order
            for j, c in enumerate(nums):
                raw[j * k % order] = c  # distinct exponents, k being a unit
            conj = _fold(raw, order, len(nums))
            prod = conj if prod is None else _mul_nums(prod, conj, order)
    if prod is None:
        return [1], nums[0]
    norm = _mul_nums(nums, prod, order)
    assert norm[0] and not any(norm[1:]), "the norm is a nonzero rational"
    return prod, norm[0]


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
        # over the lcm of lowest-terms denominators the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        deg = euler_phi(order)
        if len(nums) != deg:  # folding may leave a common factor
            nums = _fold(nums, order, deg)
            g = math.gcd(*nums, den)
            nums, den = [c // g for c in nums], den // g
        _set_order(self, order)
        _set_nums(self, tuple(nums))
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):  # pickle and copy without re-reducing
        return _raw, (self.order, self.nums, self.den)

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
        return ExactScalar(order, [0, 1])

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
        raw = [0] * ((len(self.nums) - 1) * k + 1)
        raw[::k] = self.nums
        return _make(target, _fold(raw, target, euler_phi(target)), self.den)

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

    def root_order(self) -> int | None:
        """The l for which this is a primitive l-th root of unity; None
        when it is not a root of unity (those of Q(zeta_n) have orders
        dividing lcm(2, n))."""
        m = math.lcm(2, self.order)
        return next((d for d in range(1, m + 1) if m % d == 0 and (self**d).is_one()), None)

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
        """1/x = P / N(x): P is the product of the Galois conjugates
        sigma_k(x), zeta -> zeta^k, over the units k != 1 mod the order,
        and the norm N(x) = x P is a nonzero rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # on the numerators alone: 1/x = den / X with X = x den
        prod, norm = _conjugates(self.nums, self.order)
        return _make(self.order, [c * self.den for c in prod], norm)

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
        # equal values in different orders must hash equal: a rational
        # hashes as its Fraction, anything else by Tr(x)/phi(n) and
        # Tr(x^2)/phi(n), the means of the conjugates of x and of x^2,
        # which do not depend on the order n of the field holding x
        nums, den = self.nums, self.den
        if not any(nums[1:]):
            return hash(Fraction(nums[0], den))
        traces, phi = _traces(self.order), len(nums)
        square = _mul_nums(nums, nums, self.order)
        return hash((Fraction(sum(map(operator.mul, traces, nums)), phi * den),
                     Fraction(sum(map(operator.mul, traces, square)), phi * den * den)))

    # -- text format -----------------------------------------------------
    def __repr__(self):
        return f"ExactScalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    # -- numeric embedding -------------------------------------------------
    def to_complex(self, prec: int):
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
    return _make(x.order, _mul_nums(x.nums, y.nums, x.order), x.den * y.den)


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
