"""Three-term relations: the transcribed coefficient table and an exact
derivation engine for arbitrary shift vectors.

The derivation walks the parameter lattice one contiguous step at a time,
tracking the representation of the walked series in the fixed basis
(phi(x), phi(xq)) as a pair of rational functions.  Four of the eight
moves come directly from the elementary contiguous relations

    (1-A) phi(Aq,B;C;y)  = phi(y) - A phi(yq)                 (a up)
    (1-B) phi(A,Bq;C;y)  = phi(y) - B phi(yq)                 (b up)
    (q-C) phi(A,B;C/q;y) = q phi(y) - C phi(yq)               (c down)
    (C - ABqy) phi(yq^2) = ((C+q)-(A+B)qy) phi(yq) - q(1-y) phi(y)

(all provable by matching series coefficients; the last one is the x up
move).  Each opposite move is the inverse of the direct 2x2 matrix built
at the target parameters.  One step function computes every move over any
field: rational functions for the derivation, plain Fractions or
cyclotomic scalars at concrete points.

The walk interleaves the axes: round robin over a, b, c, x, one step on
each axis that still has steps left.  Any order of the same steps lands
at the same series, and its (Q, R) is unique, so the order only changes
the cost: each step multiplies the current state and cancels it, and the
interleaved walk stays near the shift's diagonal (through the small
(0,k,k,0) relations on the way to (0,4,4,0)), where the intermediate
relations are smaller than those of an axis-by-axis walk.  The state's
denominator is kept factored over the steps' own binomials, so cancelling
is exact division by those factors only, with no general gcd.  The walk
tracks only the integer position (k, l, m, n): each of the eight moves is
built and factored once per process, at (a, b, c, x), and a step moves
that template to its position with the q-shift a -> aq^k, b -> bq^l,
c -> cq^m, x -> xq^n, re-forming each factor from its shifted exponent
vectors, so no step builds or factors a matrix.

The (Q, R) pair of the normal-form relation is recovered at the end via
phi(xq) = phi - x(1-a)(1-b)/(1-c) * phi(aq,bq;cq;x), and is checked by
exact series matching at the five fixed rational points WITNESS_POINTS:
at each point the first D + 1 coefficients in x, D a degree bound
counted from the shift and the cleared x-degree, prove the whole series
identity in x (the argument is in _series_verify).  The match moves
the parameters with Phi21Params.shifted and sums the series with the
term recurrence of qseries at x = 1 (so the terms are the coefficients
in x, and at x = q^n those of phi(xq^n)), with its factors cleared so
that the match is a test of int sums against 0 (each cleared polynomial
evaluated once per point, grouped by the power of x, and each row
scaled once to the lcm of the rows' denominators).  The numeric residual (relation_residual,
verify_relation, through phi21_numeric) is not part of the derivation:
it stays the independent oracle of the relation table's reproduction and
of the tests.

Every random point of qforge, in verify_relation and cli, comes from
draw_admissible: one bounded loop that skips degenerate draws.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import lcm
from operator import mul, or_
from types import MappingProxyType
from typing import NamedTuple

import mpmath

from .approx import DEFAULT_PREC, ApproxScalar
from .errors import (
    BudgetExceeded,
    NotInTable,
    SamplingExhausted,
    VerificationFailed,
    ZeroDenominator,
)
from .poly import RELATION_VARS, MultiPoly, RationalFunction
from .qseries import Phi21Params, _cleared_terms, phi21_numeric

DEFAULT_DEGREE_BUDGET = 8
DEFAULT_SEED = 20250808
_MAX_DEN = 97  # largest numerator and denominator of a random rational
_RESIDUAL_PREC = 128  # working bits of the residual check
_UP = (1, 1, 1, 0)  # phi(aq, bq; cq; q, x), the second basis series

# The (a, b, c, q) points of the series check, each meeting its side
# conditions (see _series_verify); the first is forge.check_family's witness
WITNESS_POINTS = tuple(tuple(map(Fraction, p.split())) for p in (
    "2/7 3/11 5/13 1/3",
    "3/17 5/19 7/23 1/5",
    "5/29 7/31 11/37 2/7",
    "7/41 11/43 13/47 3/13",
    "11/53 13/59 17/61 4/11",
))


class ShiftVector(NamedTuple):
    """The shift (k, l, m, n) of phi(aq^k, bq^l; cq^m; q, xq^n): a tuple,
    equal to and hashing as the plain (k, l, m, n)."""

    k: int
    l: int
    m: int
    n: int

    @staticmethod
    def parse(text: str) -> "ShiftVector":
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"shift must be 'k,l,m,n', got {text!r}")
        return ShiftVector(*parts)

    def __str__(self):
        return f"{self.k},{self.l},{self.m},{self.n}"


@dataclass(frozen=True)
class ThreeTermRelation:
    """phi(aq^k, bq^l; cq^m; q, xq^n) = Q*phi(aq,bq;cq;q,x) + R*phi(a,b;c;q,x)."""

    shift: ShiftVector
    Q: RationalFunction
    R: RationalFunction

    def to_json(self) -> dict:
        return {"shift": str(self.shift), "Q": self.Q.to_json(), "R": self.R.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "ThreeTermRelation":
        return ThreeTermRelation(
            ShiftVector.parse(obj["shift"]),
            RationalFunction.from_json(obj["Q"]),
            RationalFunction.from_json(obj["R"]),
        )


def _rf_vars():
    return tuple(RationalFunction.var(s) for s in ("a", "b", "c", "q", "x"))


@cache
def _table() -> dict[tuple[int, int, int, int], tuple[RationalFunction, RationalFunction]]:
    a, b, c, q, x = _rf_vars()
    t: dict = {}
    t[(0, 0, 0, 2)] = (
        -((1 - a) * (1 - b) * x * (c + q - (a + b) * x * q)) / ((1 - c) * (c - a * b * x * q)),
        (c + (1 - a - b) * x * q) / (c - a * b * x * q),
    )
    t[(0, 1, 1, 0)] = (
        -(1 - a) * (c - a * b * x) / (a - c),
        a * (1 - c) / (a - c),
    )
    t[(0, 2, 2, 0)] = (
        -((1 - a) * (1 - c * q) * (c - a * b * x) * ((1 - c) * q + (a - b * q) * x))
        / ((1 - b * q) * (a - c) * (a - c * q) * x),
        ((1 - c) * (1 - c * q) * ((1 - a) * c * q + a * (a - b * q) * x))
        / ((1 - b * q) * (a - c) * (a - c * q) * x),
    )
    t[(1, 2, 1, -1)] = (
        (c - b * q + b * (1 - a) * x) * q / ((1 - b * q) * (q - x)),
        (1 - c) * q / ((1 - b * q) * (q - x)),
    )
    den = a**3 * (1 - b * q) * (1 - b * q**2) * (1 - c / a) * (1 - c * q / a) * (1 - c * q**2 / a) * x**2
    t[(0, 3, 3, 0)] = (
        -(1 - a) * (c - a * b * x) * (1 - c * q) * (1 - c * q**2)
        * ((1 - c) * (1 - c * q) * q**2 + (1 - c) * (a - b * q**2) * x * q
           - (1 - a) * (b - c) * x * q**2 + (a - b * q) * (a - b * q**2) * x**2)
        / den,
        (1 - c) * (1 - c * q) * (1 - c * q**2)
        * ((1 - a) * (1 - c * q) * c * q**2 + c * (1 - a) * (a - b * q**2) * x * q
           - a * (1 - a) * (b - c) * x * q**2 + a * (a - b * q) * (a - b * q**2) * x**2)
        / den,
    )
    return t


TABLE_SHIFTS = ((0, 0, 0, 2), (0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 1, -1), (0, 3, 3, 0))


def qr_lookup(shift) -> ThreeTermRelation:
    """The transcribed (Q, R) pair for one of the five tabulated shifts."""
    shift = ShiftVector(*shift)
    pair = _table().get(shift)
    if pair is None:
        raise NotInTable(f"no transcribed pair for shift {shift}")
    return ThreeTermRelation(shift, *pair)


# -- the contiguous-step ladder ----------------------------------------------------
#
# _r2, _direct and contiguous_step work over any field: qr_derive runs them
# on RationalFunctions, once per move at the base position (_template),
# and they run as well on Fractions or ExactScalars.

_AXES = "abcx"


def _r2(A, B, C, y, q):
    """(g0, g1) with phi(yq^2) = g0*phi(y) + g1*phi(yq) at (A, B; C)."""
    den = C - A * B * q * y
    return -(q * (1 - y)) / den, ((C + q) - (A + B) * q * y) / den


def _direct(axis, p, q):
    """The matrix taking (phi(y), phi(yq)) at p = (A, B, C, y) to the same
    pair one step along `axis` in the direction a contiguous relation
    gives directly: a, b or x up, or c down."""
    A, B, C, y = p
    g0, g1 = _r2(A, B, C, y, q)
    if axis == "x":
        return ((0, 1), (g0, g1))
    t = C / q if axis == "c" else p[_AXES.index(axis)]
    s = 1 / (1 - t)
    return ((s, -t * s), (-t * g0 * s, (1 - t * g1) * s))


def contiguous_step(axis: str, up: bool, p, q):
    """(M, p') for one step of parameter `axis` ("a", "b", "c" or "x")
    up (times q) or down (over q) from p = (A, B, C, y):
    (phi(y), phi(yq)) at p' equals M times (phi(y), phi(yq)) at p.

    The opposite of a direct move is the inverse of the direct matrix
    built at the target p'."""
    i = _AXES.index(axis)
    moved = list(p)
    moved[i] = p[i] * q if up else p[i] / q
    moved = tuple(moved)
    if up == (axis != "c"):
        return _direct(axis, p, q), moved
    (m00, m01), (m10, m11) = _direct(axis, moved, q)
    det = m00 * m11 - m01 * m10
    return ((m11 / det, -m01 / det), (-m10 / det, m00 / det)), moved


# The ladder state is the pair of rows v over one denominator kept as a
# Counter of irreducible factors: the variables and the canonical
# binomials of the steps (monomial stripped, content 1, positive leading
# coefficient), every constant folded into v.  The entries of a step's
# matrix M and its determinant split over the binomials
#     1 - A, 1 - B, q - C, 1 - y, C - ABqy, C - Aq, C - Bq
# at p and p' (the c move's determinant is
# -(y/q)(C - Aq)(C - Bq) / ((1 - C/q)^2 (C - ABqy))).  Each has exponent 1
# in one of a, b, c, x, so is irreducible.  With L the lcm of the
# entries' denominators, a factor of the old denominator that divides
# every entry of (L M) v divides det(L M) v but not every entry of v (the
# state is in lowest terms), so it divides det(L M), a product of this
# step's factors.  A step therefore cancels, by exact division, only its
# own factors; the final Q and R try every factor of their denominators.
#
# M at (A, B, C, y) = (aq^k, bq^l, cq^m, xq^n) is M at (a, b, c, x) under
# the q-shift a -> aq^k, b -> bq^l, c -> cq^m, x -> xq^n, an automorphism
# of the Laurent polynomials.  So each of the eight moves is built and
# factored once, at the base position (its template), and a step moves
# the template's entries: each numerator under the shift (a monomial map),
# each factor re-formed from its shifted exponent vectors by _binomial.
# A shifted binomial is sign * monomial * canonical binomial, still
# coprime to the shifted numerator; the monomials of the numerator and of
# the factors meet in one normalized RationalFunction, whose monomial
# denominator gives the variable factors.  So a moved entry is the one
# that building and factoring M at (k, l, m, n) would give.

_VARS = tuple(MultiPoly.var(s).extend(RELATION_VARS) for s in RELATION_VARS)
_BASE = (0, 0, 0, 0)


@cache
def _step_factors(shift: tuple) -> frozenset:
    """The canonical binomials 1 - A, 1 - B, q - C, 1 - y, C - ABqy, C - Aq
    and C - Bq at (A, B, C, y) = (aq^k, bq^l, cq^m, xq^n), each monomial an
    exponent vector over RELATION_VARS; built once per shift."""
    k, l, m, n = shift
    one, q = (0, 0, 0, 0, 0), (0, 0, 0, 1, 0)
    A, B, C, y = (1, 0, 0, k, 0), (0, 1, 0, l, 0), (0, 0, 1, m, 0), (0, 0, 0, n, 1)
    Aq, Bq = _mono(A, q), _mono(B, q)
    return frozenset(_binomial(*pair) for pair in ((one, A), (one, B), (q, C), (one, y),
                                                  (C, _mono(A, Bq, y)), (C, Aq), (C, Bq)))


def _mono(*exps) -> tuple:
    """The exponent vector of the product of monomials."""
    return tuple(map(sum, zip(*exps)))


def _binomial(e1: tuple, e2: tuple) -> MultiPoly:
    """m1 - m2 over its monomial factor, the larger monomial first, for
    distinct exponent vectors e1, e2 (exponents may be negative)."""
    low = [min(u, v) for u, v in zip(e1, e2)]
    hi, lo = sorted((tuple(u - w for u, w in zip(e, low)) for e in (e1, e2)), reverse=True)
    return MultiPoly(RELATION_VARS, {hi: 1, lo: -1})


def _factor(p: MultiPoly, known, where: str):
    """(c, F) with p = c * prod(f**k for f, k in F.items()) over the
    factors `known`; VerificationFailed when p does not split over them."""
    out, p = Counter(), p.extend(RELATION_VARS)
    for f in known:
        while (t := p.divide(f)) is not None:
            p = t
            out[f] += 1
    if not p.is_const():
        raise VerificationFailed(f"denominator factor {p.to_text()} of the {where} is not a step factor")
    return p.const_value(), out


def _expand(factors: Counter) -> MultiPoly:
    return reduce(mul, (f ** k for f, k in factors.items()), MultiPoly.const(1))


def _cancel(nums: list, den: Counter, factors):
    """(nums, den) with each of `factors` divided out of every numerator
    as often as den has it and all the numerators are divisible by it."""
    den = Counter(den)
    for f in factors:
        while den[f] and (out := _divide_all(nums, f)) is not None:
            nums = out
            den[f] -= 1
    return nums, +den


def _divide_all(nums: list, f: MultiPoly):
    """[n / f for n in nums], or None unless f divides every n; the
    smallest n first, where a failure costs least."""
    out = list(nums)
    for i in sorted(range(len(nums)), key=lambda i: len(nums[i].nums)):
        out[i] = nums[i].divide(f)
        if out[i] is None:
            return None
    return out


def _moved_to(at: tuple, axis: str, up: bool) -> tuple:
    """The position one step from `at` along `axis`."""
    i = _AXES.index(axis)
    return at[:i] + (at[i] + (1 if up else -1),) + at[i + 1:]


def _factored(m, known, where: str) -> tuple:
    """The entries of the 2x2 matrix m as (numerator, factor Counter)
    pairs in lowest terms, each denominator split over `known`."""
    entries = []
    for e in (RationalFunction.const(e) for row in m for e in row):
        c, fs = _factor(e.den, known, where)
        (num,), fs = _cancel([e.num * (1 / c)], fs, fs)
        entries.append((num, fs))
    return tuple(entries)


@cache
def _template(axis: str, up: bool) -> tuple:
    """The factored entries of one move's matrix at the base position
    (a, b, c, x), each factor Counter frozen into (factor, exponent)
    pairs: built once per move and shared by every step."""
    a, b, c, q, x = _rf_vars()
    m, _ = contiguous_step(axis, up, (a, b, c, x), q)
    known = _VARS + tuple(_step_factors(_BASE) | _step_factors(_moved_to(_BASE, axis, up)))
    entries = _factored(m, known, f"{axis} {'up' if up else 'down'} step from 0,0,0,0")
    return tuple((num, tuple(fs.items())) for num, fs in entries)


@cache
def _moved_factor(f: MultiPoly, at: tuple):
    """(sign, monomial, binomial) with f under the q-shift to `at` equal
    to sign * monomial * binomial: a variable moves to a monomial (and
    binomial None), a canonical binomial to a canonical binomial."""
    k, l, m, n = at
    hi, *lo = ((ea, eb, ec, eq + k * ea + l * eb + m * ec + n * ex, ex)
               for (ea, eb, ec, eq, ex), _ in sorted(f.terms.items(), key=lambda t: -t[1]))
    if not lo:
        return 1, hi, None
    (lo,) = lo
    return (1 if hi > lo else -1), tuple(map(min, hi, lo)), _binomial(hi, lo)


def _moved(axis: str, up: bool, at: tuple) -> list:
    """The factored entries of one move's matrix at `at`: the template's
    entries under the q-shift, with no factoring."""
    point = _shifted_point(at)
    out = []
    for num, fs in _template(axis, up):
        sign, mono, den = 1, (0,) * len(RELATION_VARS), Counter()
        for f, e in fs:
            s, g, binomial = _moved_factor(f, at)
            sign *= s ** e
            mono = tuple(u + e * w for u, w in zip(mono, g))
            if binomial is not None:
                den[binomial] += e
        # num under the shift over sign * mono: the monomials meet in one
        # normalized quotient, whose denominator is a monomial
        val = RationalFunction.const(num.eval(point))
        if sign != 1 or any(mono):
            val = RationalFunction(val.num * _monomial(tuple(max(-e, 0) for e in mono), sign),
                                   val.den * _monomial(tuple(max(e, 0) for e in mono), 1))
        exps, _ = val.den.leading()
        for name, e in zip(val.den.vars, exps):
            if e:
                den[_VARS[RELATION_VARS.index(name)]] += e
        out.append((val.num, den))
    return out


@cache
def _shifted_point(at: tuple) -> dict:
    """{a: aq^k, b: bq^l, c: cq^m, q: q, x: xq^n} as RationalFunctions."""
    return MappingProxyType(vars(Phi21Params(*_rf_vars()).shifted(at)))


@cache
def _monomial(exps: tuple, coeff: int) -> MultiPoly:
    """coeff times the monomial of exponent vector exps over RELATION_VARS."""
    return MultiPoly(RELATION_VARS, {exps: coeff})


def _step(axis: str, up: bool, at: tuple, v, den: Counter):
    """(at', v', den') one contiguous step from the ladder state (at, v,
    den) at position `at`: v' = M v over den' = den * L, L the lcm of the
    denominators of M's entries, in lowest terms."""
    moved = _moved_to(at, axis, up)
    known = _VARS + tuple(_step_factors(at) | _step_factors(moved))
    entries = _moved(axis, up, at)
    lcm = reduce(or_, (fs for _, fs in entries))
    b00, b01, b10, b11 = (num * _expand(lcm - fs) for num, fs in entries)
    v, den = _cancel([
        b00 * v[0][0] + b01 * v[1][0], b00 * v[0][1] + b01 * v[1][1],
        b10 * v[0][0] + b11 * v[1][0], b10 * v[0][1] + b11 * v[1][1],
    ], den + lcm, known)
    return moved, [v[0:2], v[2:4]], den


def qr_derive(shift, degree_budget: int = DEFAULT_DEGREE_BUDGET) -> ThreeTermRelation:
    """Derive the unique (Q, R) pair for an arbitrary shift vector.

    The result passes one check: the exact series match of _series_verify
    at the five WITNESS_POINTS, through the coefficient of x^D, D the
    degree bound of _gamma_degree, which proves the series identity in x
    at each point.  The numeric residual (verify_relation) is not run here.

    Raises BudgetExceeded when the cleared-denominator coefficients exceed
    the requested x-degree, and VerificationFailed when the result does not
    reproduce the series identity (which would indicate a bug).
    """
    shift = ShiftVector(*shift)
    if shift == (0, 0, 0, 0):
        return ThreeTermRelation(shift, RationalFunction.const(0), RationalFunction.const(1))
    # (phi(y), phi(yq)) at the walked position `at`, in the basis
    # (phi(x), phi(xq)): the rows of v over the factored denominator den
    one, zero = MultiPoly.const(1), MultiPoly.const(0)
    at, v, den = _BASE, [[one, zero], [zero, one]], Counter()
    for axis, up in _walk(shift):
        at, v, den = _step(axis, up, at, v, den)
    # Q = -rep1 x (1-a)(1-b)/(1-c) = rep1 x (a-1)(b-1)/(c-1), R = rep0 + rep1
    a, b, c, _, x = _VARS
    fa, fb, fc = a - 1, b - 1, c - 1
    extra = Counter((x, fa, fb))
    q_den = den + Counter((fc,))
    common = extra & q_den
    q_den -= common
    (q_num,), q_den = _cancel([v[0][1] * _expand(extra - common)], q_den, q_den)
    (r_num,), r_den = _cancel([v[0][0] + v[0][1]], den, den)
    rel = ThreeTermRelation(shift, RationalFunction(q_num, _expand(q_den)),
                            RationalFunction(r_num, _expand(r_den)))

    # P0 = lcm of the denominators of Q and R, P1 = P0*Q, P2 = P0*R: only
    # the factors each denominator lacks are multiplied in
    lcm = q_den | r_den
    p0, p1, p2 = _expand(lcm), q_num * _expand(lcm - q_den), r_num * _expand(lcm - r_den)
    d = max(pp.degree_in("x") for pp in (p0, p1, p2))
    if d > degree_budget:
        raise BudgetExceeded(f"cleared x-degree {d} exceeds budget {degree_budget}")
    order = _gamma_degree(shift, d) + 1  # D + 1 coefficients prove the identity at a point
    # one exactly nonzero coefficient proves the relation wrong: no retry
    if not _series_verify(shift, (p0, p1, p2), order):
        raise VerificationFailed(f"series match failed for shift {shift}")
    return rel


def _walk(shift):
    """The contiguous steps (axis, up) from (a, b, c, x) to `shift`: round
    robin over a, b, c, x, one step on each axis with steps left."""
    for r in range(max(map(abs, shift))):
        for axis, count in zip(_AXES, shift):
            if r < abs(count):
                yield axis, count > 0


def _gamma_degree(shift, d: int) -> int:
    """D = deg L + max(k + l - m + n, 1), the bound on the degree of
    Gamma(z) L(z) in _series_verify for the shift (k, l, m, n) and the
    cleared x-degree d, with deg L = 2d + k- + l- + max(m, 1) + n-
    (v- = max(-v, 0)): counted from the factors, no polynomial built."""
    k, l, m, n = shift
    return 2 * d + max(-k, 0) + max(-l, 0) + max(m, 1) + max(-n, 0) + max(k + l - m + n, 1)


def _series_verify(shift, cleared: tuple[MultiPoly, MultiPoly, MultiPoly], order: int) -> bool:
    """Exact check that P0*phi_shifted - P1*phi_up - P2*phi_base has zero
    series coefficients through x^(order-1) at each of WITNESS_POINTS,
    (P0, P1, P2) = `cleared`.  At x = 1 the terms t_0 .. t_(order-1) of a
    series are its coefficients in x (at x = q^n, those of phi(xq^n)), as
    ints nums over one denominator D (qseries._cleared_terms); each P's
    x-coefficient values are ints over one denominator L, from one plan
    of P grouped by the power of x (MultiPoly.eval_by_power).  With M the
    lcm of the three D L, each row's coefficient of x^t, an int sum of
    the unscaled ints, is multiplied by M / (D L), so each coefficient of
    the difference, times M, is an int sum.  The three series share most
    of the factors of their D, so M stays far below the product.

    Why order >= D + 1 (_gamma_degree) proves the whole series identity
    in x at a point (a, b, c, q): the "check enough cases" principle of
    Petkovsek, Wilf and Zeilberger, A = B (1996), in the q-form of Wilf
    and Zeilberger (Invent. Math. 108, 1992).  Let t_j be the terms of
    phi_base, T_j and U_j those of phi_shifted and phi_up (zero at j < 0),
    p_i the coefficient of x^i in a P (0 <= i <= d, d the largest
    x-degree of the three) and z = q^j.  The coefficient of x^j is

        sum_i  p0_i T_(j-i) - p1_i U_(j-i) - p2_i t_(j-i)  =  t_j Gamma(z),

    one rational function Gamma of z, as each ratio to t_j is one.  For
    the shift (k, l, m, n), with (v; q)_N = 1 / (vq^N; q)_(-N) at N < 0,
    finite products telescope to

        T_(j-i) / t_j = C_i (az; q)_(k-i) (bz; q)_(l-i) (z/q^(i-1); q)_i z^n / (cz; q)_(m-i),

    C_i a constant of the point; U is the shift (1, 1, 1, 0) and t the
    shift 0.  The factor (z/q^(i-1); q)_i vanishes at z = q^j for j < i,
    so the formula holds from j = 0 on.  Each summand has net degree
    k + l - m + n, 1 or 0 in z, and its denominator divides

        L(z) = z^(n-) prod_(r = min(k,0)-d .. -1) (1 - aq^r z)
               prod_(r = min(l,0)-d .. -1) (1 - bq^r z) prod_(r = 0 .. max(m,1)-1) (1 - cq^r z),

    so Gamma L is a polynomial of degree at most D = deg L + max(k + l -
    m + n, 1).  The side conditions: q is not 0, 1 or -1, so the q^j are
    distinct; and no s with a q^s = 1 at s >= min(k, 0) - d, b q^s = 1 at
    s >= min(l, 0) - d, or c q^s = 1 at s >= min(m, 0).  Every point of
    WITNESS_POINTS meets them for every shift and every d: its q is not
    0 or +-1, and each v of a, b, c has a prime p in its numerator or
    denominator that divides neither part of q, so v has nonzero p-adic
    valuation and q^-s has none, and v q^s != 1 at every integer s.  Then
    every t_j, C_i and term is finite, t_j != 0 and L(q^j) != 0 for every
    j >= 0.  So when the coefficients of x^0 .. x^(order-1) vanish, Gamma
    L has order >= D + 1 roots q^j, Gamma = 0, and every coefficient
    vanishes: the identity holds at the point as a power series in x.
    The five points test it as an identity in a, b, c, q."""
    cleared = [pp.extend(("x",)) for pp in cleared]  # one plan per P for every point
    for point in WITNESS_POINTS:
        pt = Phi21Params(*point, Fraction(1))  # x = 1 gives the coefficients in x
        series = [_cleared_terms(p, order) for p in (pt.shifted(shift), pt.shifted(_UP), pt)]
        values = [pp.eval_by_power("x", vars(pt)) for pp in cleared]
        dens = [den * lden for (_, den), (_, lden) in zip(series, values)]
        m = lcm(*dens)
        rows = [(nums, cs, sign * (m // d))
                for (nums, _), (cs, _), d, sign in zip(series, values, dens, (1, -1, -1))]
        for t in range(order):
            if sum(s * sum(v * nums[t - j] for j, v in cs.items() if j <= t) for nums, cs, s in rows):
                return False
    return True


# -- evaluation & numeric residuals ------------------------------------------------


def relation_residual(rel: ThreeTermRelation, point: dict, tol: float,
                      prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """|phi_shifted - Q*phi_up - R*phi_base| plus the error bound of that
    difference.  Each series is summed at tol / (10 max(1, |Q|, |R|)), so
    that Q and R do not scale the series' errors above tol."""
    p = Phi21Params(point["a"], point["b"], point["c"], point["q"], point["x"])
    qv = ApproxScalar.coerce(rel.Q.eval(vars(p)), prec)
    rv = ApproxScalar.coerce(rel.R.eval(vars(p)), prec)
    inner = tol / (10 * max(1, qv.magnitude(), rv.magnitude()))
    base = phi21_numeric(p, inner, prec)
    up = phi21_numeric(p.shifted(_UP), inner, prec)
    shifted = phi21_numeric(p.shifted(rel.shift), inner, prec)
    diff = shifted.value - qv * up.value - rv * base.value
    return abs(diff.val) + diff.err


def rand_fraction(rng: random.Random) -> Fraction:
    """Random rational in (0, 1/2) with numerator/denominator <= _MAX_DEN."""
    den = rng.randint(3, _MAX_DEN)
    num = rng.randint(1, max(1, (den - 1) // 2))
    return Fraction(num, den)


def draw_admissible(draw, count: int, budget: int, what: str):
    """Yield `count` results of draw(): the one sampling loop of qforge.
    A draw that raises ZeroDivisionError (a degenerate point) or returns
    None (an inadmissible one) is skipped, and SamplingExhausted is raised
    once `budget` draws have not produced `count` results."""
    for _ in range(budget):
        if not count:
            return
        try:
            value = draw()
        except ZeroDivisionError:
            continue
        if value is not None:
            count -= 1
            yield value
    if count:
        raise SamplingExhausted(f"could not sample admissible {what}")


def rand_fraction_wide(rng: random.Random) -> Fraction:
    """Random positive rational with numerator/denominator <= _MAX_DEN."""
    return Fraction(rng.randint(1, _MAX_DEN), rng.randint(1, _MAX_DEN))


def sample_relation_point(rng: random.Random, shift: ShiftVector) -> dict:
    """Random point: coordinates in (0, 1/2), x scaled so the shifted
    argument x*q^n stays inside the unit disk.  Raises ZeroDenominator on
    the degenerate locus c = abx (a, b, c, x are never 0 or 1)."""
    q0 = rand_fraction(rng)
    a0, b0, c0 = (rand_fraction(rng) for _ in range(3))
    x0 = rand_fraction(rng)
    if shift.n < 0:
        x0 = x0 * q0 ** (-shift.n)
    if c0 == a0 * b0 * x0:
        raise ZeroDenominator("sampled point lies on the locus c = abx")
    return {"a": a0, "b": b0, "c": c0, "q": q0, "x": x0}


def verify_relation(rel: ThreeTermRelation, n_points: int = 20, tol: float = 1e-10,
                    seed: int = DEFAULT_SEED) -> None:
    """Residual invariant: residual < tol at n_points random admissible points."""
    rng = random.Random(seed)

    def draw():
        point = sample_relation_point(rng, rel.shift)
        return point, relation_residual(rel, point, tol / 100, prec=_RESIDUAL_PREC)

    for point, res in draw_admissible(draw, n_points, 50 * n_points, "residual points"):
        if not res < tol:
            raise VerificationFailed(
                f"residual {mpmath.nstr(res, 5)} >= {tol} at {point} for shift {rel.shift}"
            )
