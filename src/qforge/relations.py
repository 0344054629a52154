"""Three-term relations: the transcribed coefficient table and an exact
derivation engine for arbitrary shift vectors.

The derivation walks the parameter lattice one contiguous step at a time,
tracking the representation of the walked series in the fixed basis
(phi(x), phi(xq)) as a pair of rational functions.  Each step uses one of
the elementary contiguous relations

    (1-A) phi(Aq,B;C;y)  = phi(y) - A phi(yq)                 (a up)
    (1-B) phi(A,Bq;C;y)  = phi(y) - B phi(yq)                 (b up)
    (q-C) phi(A,B;C/q;y) = q phi(y) - C phi(yq)               (c down)
    (C - ABqy) phi(yq^2) = ((C+q)-(A+B)qy) phi(yq) - q(1-y) phi(y)

(all provable by matching series coefficients); downward a/b steps and the
upward c step solve the corresponding 2x2 linear system built from the
same relations at the stepped parameters.  The (Q, R) pair of the
normal-form relation is recovered at the end via
phi(xq) = phi - x(1-a)(1-b)/(1-c) * phi(aq,bq;cq;x), and is verified both
by exact series matching at random rational points and by the numeric
residual invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .approx import ApproxScalar
from .errors import (
    BudgetExceeded,
    NotInTable,
    VerificationFailed,
    ZeroDenominator,
)
from .poly import MultiPoly, RationalFunction
from .qseries import Phi21Params, phi21_numeric

DEFAULT_DEGREE_BUDGET = 8
DEFAULT_SEED = 20250808


@dataclass(frozen=True)
class ShiftVector:
    k: int
    l: int
    m: int
    n: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k, self.l, self.m, self.n)

    @staticmethod
    def coerce(v) -> "ShiftVector":
        if isinstance(v, ShiftVector):
            return v
        k, l, m, n = v
        return ShiftVector(int(k), int(l), int(m), int(n))

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


_TABLE_CACHE: dict | None = None
TABLE_SHIFTS = ((0, 0, 0, 2), (0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 1, -1), (0, 3, 3, 0))


def qr_lookup(shift) -> ThreeTermRelation:
    """The transcribed (Q, R) pair for one of the five tabulated shifts."""
    global _TABLE_CACHE
    shift = ShiftVector.coerce(shift)
    if _TABLE_CACHE is None:
        _TABLE_CACHE = _table()
    key = shift.as_tuple()
    if key not in _TABLE_CACHE:
        raise NotInTable(f"no transcribed pair for shift {shift}")
    Q, R = _TABLE_CACHE[key]
    return ThreeTermRelation(shift, Q, R)


# -- the contiguous-step ladder ----------------------------------------------------


class _Ladder:
    """Tracks (phi_cur(y), phi_cur(yq)) in the basis (phi(x), phi(xq)).

    The two representation rows share one polynomial denominator; every
    step multiplies the state by a small 2x2 matrix of rational functions
    and cancels the common gcd once, so intermediate sizes stay close to
    the true (Q, R) of the intermediate shifts.
    """

    def __init__(self):
        one = MultiPoly.const(1)
        zero = MultiPoly.const(0)
        self.v = [[one, zero], [zero, one]]
        self.den = one
        self.off = [0, 0, 0, 0]  # current q-power offsets of (a, b, c, x)

    # current parameter values as (monomial) rational functions
    def _cur(self):
        a, b, c, q, x = _rf_vars()
        ka, lb, mc, nx = self.off
        return a * q**ka, b * q**lb, c * q**mc, x * q**nx, q

    def _r2_coeffs(self):
        """(g0, g1) with phi_cur(yq^2) = g0*row0 + g1*row1 (q-difference eq)."""
        A, B, C, y, q = self._cur()
        den = C - A * B * q * y
        return -(q * (1 - y)) / den, ((C + q) - (A + B) * q * y) / den

    def _apply(self, beta):
        """State := beta @ state for a 2x2 matrix of rational functions."""
        entries = [e.cancel() for e in (beta[0][0], beta[0][1], beta[1][0], beta[1][1])]
        names = set()
        for e in entries:
            names |= set(e.num.vars) | set(e.den.vars)
        names = tuple(sorted(names))
        dens = [e.den.extend(names)._to_sym() for e in entries]
        d_move_s = dens[0]
        for d in dens[1:]:
            d_move_s = d_move_s * d.quo(d_move_s.gcd(d))
        d_move = MultiPoly._from_sym(d_move_s, names)
        nums = [
            e.num.extend(names) * MultiPoly._from_sym(d_move_s.quo(d), names)
            for e, d in zip(entries, dens)
        ]
        b00, b01, b10, b11 = nums
        new_v = [
            [b00 * self.v[0][0] + b01 * self.v[1][0], b00 * self.v[0][1] + b01 * self.v[1][1]],
            [b10 * self.v[0][0] + b11 * self.v[1][0], b10 * self.v[0][1] + b11 * self.v[1][1]],
        ]
        new_den = self.den * d_move
        flat = _cancel_common([new_v[0][0], new_v[0][1], new_v[1][0], new_v[1][1], new_den])
        self.v = [[flat[0], flat[1]], [flat[2], flat[3]]]
        self.den = flat[4]

    def rows(self):
        den = RationalFunction.from_poly(self.den)
        return (
            (RationalFunction.from_poly(self.v[0][0]) / den, RationalFunction.from_poly(self.v[0][1]) / den),
            (RationalFunction.from_poly(self.v[1][0]) / den, RationalFunction.from_poly(self.v[1][1]) / den),
        )

    def _beta_direct_up(self, t, g0, g1):
        """Rows for (1-t)*new0 = r0 - t*r1, (1-t)*new1 = r1 - t*r2."""
        inv = 1 / (1 - t)
        return [[inv, -t * inv], [-t * g0 * inv, (1 - t * g1) * inv]]

    def _beta_solve(self, t, h0, h1):
        """Inverse of [[1, -t], [-t*h0, 1 - t*h1]] scaled by (1-t)."""
        det = (1 - t * h1) - t * t * h0
        s = (1 - t) / det
        return [[(1 - t * h1) * s, t * s], [t * h0 * s, s]]

    def step_a(self, up: bool):
        A, B, C, y, q = self._cur()
        if up:
            g0, g1 = self._r2_coeffs()
            self._apply(self._beta_direct_up(A, g0, g1))
            self.off[0] += 1
        else:
            t = A / q
            den = C - t * B * q * y
            h0 = -(q * (1 - y)) / den
            h1 = ((C + q) - (t + B) * q * y) / den
            self._apply(self._beta_solve(t, h0, h1))
            self.off[0] -= 1

    def step_b(self, up: bool):
        A, B, C, y, q = self._cur()
        if up:
            g0, g1 = self._r2_coeffs()
            self._apply(self._beta_direct_up(B, g0, g1))
            self.off[1] += 1
        else:
            t = B / q
            den = C - A * t * q * y
            h0 = -(q * (1 - y)) / den
            h1 = ((C + q) - (A + t) * q * y) / den
            self._apply(self._beta_solve(t, h0, h1))
            self.off[1] -= 1

    def step_c(self, up: bool):
        A, B, C, y, q = self._cur()
        if up:
            tgt = C * q
            den = tgt - A * B * q * y
            h0 = -(q * (1 - y)) / den
            h1 = ((tgt + q) - (A + B) * q * y) / den
            self._apply(self._beta_solve(C, h0, h1))
            self.off[2] += 1
        else:
            g0, g1 = self._r2_coeffs()
            inv = 1 / (q - C)
            beta = [[q * inv, -C * inv], [-C * g0 * inv, (q - C * g1) * inv]]
            self._apply(beta)
            self.off[2] -= 1

    def step_x(self, up: bool):
        A, B, C, y, q = self._cur()
        zero = RationalFunction.const(0)
        one = RationalFunction.const(1)
        if up:
            g0, g1 = self._r2_coeffs()
            self._apply([[zero, one], [g0, g1]])
            self.off[3] += 1
        else:
            cf0 = ((C + q) - (A + B) * y) / (q - y)
            cf1 = -(C - A * B * y) / (q - y)
            self._apply([[cf0, cf1], [one, zero]])
            self.off[3] -= 1


def _cancel_common(polys: list[MultiPoly]) -> list[MultiPoly]:
    """Strip rational content, common monomial factors, and the common
    multivariate gcd from a list of polynomials."""
    names = set()
    for p in polys:
        names |= set(p.vars)
    names = tuple(sorted(names))
    polys = [p.extend(names) for p in polys]
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return polys
    # common monomial factor
    strip = None
    for p in nonzero:
        mins = None
        for exps in p.terms:
            mins = exps if mins is None else tuple(map(min, mins, exps))
        strip = mins if strip is None else tuple(map(min, strip, mins))
    if strip and any(strip):
        polys = [
            MultiPoly(names, {tuple(e - s for e, s in zip(exps, strip)): cf for exps, cf in p.terms.items()})
            for p in polys
        ]
        nonzero = [p for p in polys if not p.is_zero()]
    # rational content
    import math

    num_gcd, den_lcm = 0, 1
    for p in nonzero:
        cont = p.content()
        num_gcd = math.gcd(num_gcd, cont.numerator)
        den_lcm = den_lcm * cont.denominator // math.gcd(den_lcm, cont.denominator)
    scale = Fraction(den_lcm, num_gcd) if num_gcd else Fraction(1)
    if scale != 1:
        polys = [p * scale for p in polys]
        nonzero = [p for p in polys if not p.is_zero()]
    # multivariate gcd
    syms = [p._to_sym() for p in nonzero]
    g = syms[0]
    for s in syms[1:]:
        if g.is_one:
            break
        g = g.gcd(s)
    if not g.is_one:
        out = []
        for p in polys:
            if p.is_zero():
                out.append(p)
            else:
                out.append(MultiPoly._from_sym(p._to_sym().quo(g), names))
        polys = out
    return polys


def qr_derive(shift, degree_budget: int = DEFAULT_DEGREE_BUDGET,
              seed: int = DEFAULT_SEED, _verify: bool = True) -> ThreeTermRelation:
    """Derive the unique (Q, R) pair for an arbitrary shift vector.

    Raises BudgetExceeded when the cleared-denominator coefficients exceed
    the requested x-degree, VerificationFailed when the result does not
    reproduce the series identity (which would indicate a bug).
    """
    shift = ShiftVector.coerce(shift)
    a, b, c, q, x = _rf_vars()
    if shift.as_tuple() == (0, 0, 0, 0):
        return ThreeTermRelation(shift, RationalFunction.const(0), RationalFunction.const(1))
    lad = _Ladder()
    for count, step in ((shift.k, lad.step_a), (shift.l, lad.step_b),
                        (shift.m, lad.step_c), (shift.n, lad.step_x)):
        for _ in range(abs(count)):
            step(count > 0)
    rep0, rep1 = lad.rows()[0]
    Q = (-rep1 * x * (1 - a) * (1 - b) / (1 - c)).cancel()
    R = (rep0 + rep1).cancel()
    rel = ThreeTermRelation(shift, Q, R)

    d = _cleared_x_degree(rel)
    if d > degree_budget:
        raise BudgetExceeded(f"cleared x-degree {d} exceeds budget {degree_budget}")
    if _verify:
        order = 3 * (d + 1) + 8
        rng = random.Random(seed)
        if not _series_verify(rel, order, rng, points=5):
            if not _series_verify(rel, 2 * order, rng, points=5):
                raise VerificationFailed(f"series match failed for shift {shift}")
        verify_relation(rel, n_points=20, tol=1e-10, seed=seed)
    return rel


def _cleared_polys(rel: ThreeTermRelation):
    """(P0, P1, P2) with P0 the least common denominator of Q and R."""
    names = set()
    for p in (rel.Q.num, rel.Q.den, rel.R.num, rel.R.den):
        names |= set(p.vars)
    names = tuple(sorted(names))
    dq, dr = rel.Q.den.extend(names), rel.R.den.extend(names)
    sq, sr = dq._to_sym(), dr._to_sym()
    g = sq.gcd(sr)
    cof_q = MultiPoly._from_sym(sr.quo(g), names)
    cof_r = MultiPoly._from_sym(sq.quo(g), names)
    p0 = dq * cof_q
    p1 = rel.Q.num.extend(names) * cof_q
    p2 = rel.R.num.extend(names) * cof_r
    return p0, p1, p2


def _cleared_x_degree(rel: ThreeTermRelation) -> int:
    return max(p.degree_in("x") for p in _cleared_polys(rel))


def _series_coeffs(a0: Fraction, b0: Fraction, c0: Fraction, q0: Fraction, order: int):
    """Coefficients of phi(a0,b0;c0;q0,x) in x up to x^(order-1), exact."""
    out = [Fraction(1)]
    term = Fraction(1)
    aq, bq, cq = a0, b0, c0
    qq = Fraction(1)
    for i in range(1, order):
        qq *= q0
        den = (1 - qq) * (1 - cq)
        if den == 0:
            raise ZeroDenominator("degenerate series point")
        term = term * (1 - aq) * (1 - bq) / den
        out.append(term)
        aq *= q0
        bq *= q0
        cq *= q0
    return out


def _x_coeff_polys(p: MultiPoly) -> dict[int, MultiPoly]:
    """Split a polynomial into coefficients of powers of x."""
    if "x" not in p.vars:
        return {0: p}
    xi = p.vars.index("x")
    rest = tuple(v for v in p.vars if v != "x")
    out: dict[int, dict] = {}
    for exps, coeff in p.terms.items():
        e = exps[xi]
        key = tuple(v for i, v in enumerate(exps) if i != xi)
        out.setdefault(e, {})[key] = coeff
    return {e: MultiPoly(rest, terms) for e, terms in out.items()}


def _series_verify(rel: ThreeTermRelation, order: int, rng: random.Random, points: int) -> bool:
    """Exact check that P0*phi_shifted - P1*phi_up - P2*phi_base has zero
    series coefficients through x^(order-1) at random rational points."""
    s = rel.shift
    pp0, pp1, pp2 = _cleared_polys(rel)
    p0, p1, p2 = _x_coeff_polys(pp0), _x_coeff_polys(pp1), _x_coeff_polys(pp2)
    done = 0
    attempts = 0
    while done < points:
        attempts += 1
        if attempts > 50 * points:
            raise VerificationFailed("could not sample admissible verification points")
        a0, b0, c0 = (rand_fraction(rng) for _ in range(3))
        q0 = rand_fraction(rng)
        try:
            base = _series_coeffs(a0, b0, c0, q0, order)
            up = _series_coeffs(a0 * q0, b0 * q0, c0 * q0, q0, order)
            sh = _series_coeffs(a0 * q0**s.k, b0 * q0**s.l, c0 * q0**s.m, q0, order)
            pt = {"a": a0, "b": b0, "c": c0, "q": q0}
            ev0 = {e: p.eval(pt) for e, p in p0.items()}
            ev1 = {e: p.eval(pt) for e, p in p1.items()}
            ev2 = {e: p.eval(pt) for e, p in p2.items()}
        except (ZeroDenominator, ZeroDivisionError):
            continue
        qxn = [q0 ** (s.n * i) for i in range(order)]
        for t in range(order):
            acc = Fraction(0)
            for j, v in ev0.items():
                if j <= t:
                    acc += v * sh[t - j] * qxn[t - j]
            for j, v in ev1.items():
                if j <= t:
                    acc -= v * up[t - j]
            for j, v in ev2.items():
                if j <= t:
                    acc -= v * base[t - j]
            if acc != 0:
                return False
        done += 1
    return True


# -- evaluation & numeric residuals ------------------------------------------------


def relation_residual(rel: ThreeTermRelation, point: dict, tol: float,
                      prec: int | None = None) -> mpmath.mpf:
    """|phi_shifted - Q*phi_up - R*phi_base| with each series evaluated
    numerically at tolerance tol/10."""
    s = rel.shift
    a0, b0, c0 = point["a"], point["b"], point["c"]
    q0, x0 = point["q"], point["x"]
    exact_pt = {"a": a0, "b": b0, "c": c0, "q": q0, "x": x0}
    qv = ApproxScalar.coerce(rel.Q.eval(exact_pt), prec)
    rv = ApproxScalar.coerce(rel.R.eval(exact_pt), prec)
    inner = tol / 10
    base = phi21_numeric(Phi21Params(a0, b0, c0, q0, x0), inner, prec)
    up = phi21_numeric(Phi21Params(a0 * q0, b0 * q0, c0 * q0, q0, x0), inner, prec)
    shifted = phi21_numeric(
        Phi21Params(a0 * q0**s.k, b0 * q0**s.l, c0 * q0**s.m, q0, x0 * q0**s.n),
        inner, prec,
    )
    diff = shifted.value - qv * up.value - rv * base.value
    return abs(diff.val)


def rand_fraction(rng: random.Random, max_den: int = 97) -> Fraction:
    """Random rational in (0, 1/2) with numerator/denominator <= max_den."""
    den = rng.randint(3, max_den)
    num = rng.randint(1, max(1, (den - 1) // 2))
    return Fraction(num, den)


def rand_fraction_wide(rng: random.Random, max_den: int = 97) -> Fraction:
    """Random positive rational with numerator/denominator <= max_den."""
    return Fraction(rng.randint(1, max_den), rng.randint(1, max_den))


def sample_relation_point(rng: random.Random, shift: ShiftVector) -> dict:
    """Admissible random point: coordinates in (0, 1/2), x scaled so the
    shifted argument x*q^n stays inside the unit disk, degenerate loci
    (a=1, b=1, c=1, x=0, c=abx) avoided."""
    while True:
        q0 = rand_fraction(rng)
        a0, b0, c0 = (rand_fraction(rng) for _ in range(3))
        x0 = rand_fraction(rng)
        if shift.n < 0:
            x0 = x0 * q0 ** (-shift.n)
        if x0 == 0 or c0 == a0 * b0 * x0:
            continue
        return {"a": a0, "b": b0, "c": c0, "q": q0, "x": x0}


def verify_relation(rel: ThreeTermRelation, n_points: int = 20, tol: float = 1e-10,
                    seed: int = DEFAULT_SEED, prec: int = 128) -> None:
    """Residual invariant: residual < tol at n_points random admissible points."""
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < n_points:
        attempts += 1
        if attempts > 50 * n_points:
            raise VerificationFailed("could not sample admissible residual points")
        point = sample_relation_point(rng, rel.shift)
        try:
            res = relation_residual(rel, point, tol / 100, prec=prec)
        except (ZeroDenominator, ZeroDivisionError):
            continue
        if not res < tol:
            raise VerificationFailed(
                f"residual {mpmath.nstr(res, 5)} >= {tol} at {point} for shift {rel.shift}"
            )
        done += 1
