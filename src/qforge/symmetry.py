"""Symmetry group action on shift vectors and parameter quadruples.

Words over the generators apply left to right (the leftmost generator
acts first).  Each basic generator's shift action is written once, as a
closed form in SHIFT_FORMULAS; the derived generators expand
syntactically into words over the four basic ones, on shifts and on
parameters alike, and their closed forms are kept alongside for
cross-checking.  Orbit and canonical-representative computations run in
lambda coordinates, plain 4-tuples in which the group becomes a finite
set of integer matrices: the generator matrices are built from the shift
action and closed once by BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import GroupNotClosed, NoRepresentativeFound, UndefinedAction
from .poly import RationalFunction
from .qseries import Phi21Params
from .relations import ShiftVector

WORD_EXPANSION = {
    4: (3, 2, 1, 3, 1, 2, 3),
    5: (1, 3, 1, 3, 1, 2),
    6: (1, 3, 1, 3, 1, 3),
}

# the shift actions: sigma_0..sigma_3 act by these closed forms, and the
# closed forms of sigma_4..sigma_6 are cross-checked against their words
SHIFT_FORMULAS = {
    0: lambda k, l, m, n: (-k, -l, -m, -n),
    1: lambda k, l, m, n: (n, m - k, l + n, k),
    2: lambda k, l, m, n: (-k, -l, -m, k + l - m + n),
    3: lambda k, l, m, n: (l, k, m, n),
    4: lambda k, l, m, n: (-n, l, m - k - n, -k),
    5: lambda k, l, m, n: (k - m, l - m, -m, n),
    6: lambda k, l, m, n: (m - l, m - k, m, k + l - m + n),
}


def expand_word(word) -> tuple[int, ...]:
    """Expand sigma_4..sigma_6 into sigma_0..sigma_3, purely syntactically."""
    out: list[int] = []
    for g in word:
        if g in WORD_EXPANSION:
            out.extend(WORD_EXPANSION[g])
        elif g in (0, 1, 2, 3):
            out.append(g)
        else:
            raise ValueError(f"unknown generator sigma_{g}")
    return tuple(out)


def shift_action(g: int, s) -> ShiftVector:
    """The (k,l,m,n)-component action of a single generator."""
    if g in WORD_EXPANSION:
        return apply_word_shift(WORD_EXPANSION[g], s)
    if g in (0, 1, 2, 3):
        return ShiftVector(*SHIFT_FORMULAS[g](*s))
    raise ValueError(f"unknown generator sigma_{g}")


def apply_word_shift(word, s) -> ShiftVector:
    s = ShiftVector(*s)
    for g in expand_word(word):
        s = shift_action(g, s)
    return s


@dataclass(frozen=True)
class FullPoint:
    """Shift vector together with the parameter quadruple as rational
    functions, so generator actions like c/a and abx/c stay exact."""

    shift: ShiftVector
    a: RationalFunction
    b: RationalFunction
    c: RationalFunction
    x: RationalFunction

    @staticmethod
    def generic(shift) -> "FullPoint":
        a, b, c, x = (RationalFunction.var(s) for s in ("a", "b", "c", "x"))
        return FullPoint(ShiftVector(*shift), a, b, c, x)

    def params(self):
        return (self.a, self.b, self.c, self.x)


def apply_generator(g: int, p: FullPoint) -> FullPoint:
    """Apply sigma_g to a full point; sigma_4..sigma_6 act by expansion."""
    if g in WORD_EXPANSION:
        return apply_word_point(WORD_EXPANSION[g], p)
    a, b, c, x = p.params()
    q = RationalFunction.var("q")
    new_shift = shift_action(g, p.shift)
    if g == 0:
        s = Phi21Params(a, b, c, q, x).shifted(p.shift)
        return FullPoint(new_shift, s.a, s.b, s.c, s.x)
    if g == 1:
        if a.is_zero():
            raise UndefinedAction("sigma_1 needs a != 0")
        return FullPoint(new_shift, x, c / a, b * x, a)
    if g == 2:
        if a.is_zero() or b.is_zero() or c.is_zero():
            raise UndefinedAction("sigma_2 needs a, b, c != 0")
        return FullPoint(new_shift, q / a, q / b, q**2 / c, a * b * x / c)
    if g == 3:
        return FullPoint(new_shift, b, a, c, x)
    raise ValueError(f"unknown generator sigma_{g}")


def apply_word_point(word, p: FullPoint) -> FullPoint:
    for g in expand_word(word):
        p = apply_generator(g, p)
    return p


# -- lambda coordinates -------------------------------------------------------------


def to_lambda(s) -> tuple[int, int, int, int]:
    """The lambda coordinates (k, l, -n, k + l - m) of a shift (k, l, m, n)."""
    k, l, m, n = s
    return (k, l, -n, k + l - m)


def from_lambda(v) -> ShiftVector:
    l1, l2, l3, l4 = v
    return ShiftVector(l1, l2, l1 + l2 - l4, -l3)


_IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _lambda_matrix(word):
    """The matrix of `word` in lambda coordinates (rows act on the column
    (l1, l2, l3, l4)): column j is the image of the j-th unit vector.
    The shift action is linear, so the matrix gives the whole map."""
    cols = (to_lambda(apply_word_shift(word, from_lambda(e))) for e in _IDENTITY)
    return tuple(zip(*cols))


# the five lambda-space maps conjugate to sigma'_0, sigma'_3, sigma'_4,
# sigma'_5, sigma'_0 sigma'_6
_LAMBDA_GENS = tuple((word, _lambda_matrix(word)) for word in ((0,), (3,), (4,), (5,), (0, 6)))


def _mat_apply(mat, vec):
    return tuple(sum(mij * vj for mij, vj in zip(row, vec)) for row in mat)


def _mat_mul(m1, m2):
    """Matrix of 'apply m2 first, then m1'."""
    return tuple(
        tuple(sum(m1[i][t] * m2[t][j] for t in range(4)) for j in range(4))
        for i in range(4)
    )


_GROUP_ORDER = 96  # the order of the group the five lambda maps generate


@lru_cache(maxsize=1)
def lambda_group():
    """BFS closure of the five lambda maps: list of (matrix, word) sorted
    for determinism; the word maps lambda(s) to matrix @ lambda(s) when
    its generators are applied left to right.  GroupNotClosed once the
    closure passes _GROUP_ORDER matrices."""
    seen = {_IDENTITY: ()}
    frontier = [_IDENTITY]
    while frontier:
        nxt = []
        for mat in frontier:
            for word, gen in _LAMBDA_GENS:
                new = _mat_mul(gen, mat)  # mat acts first, then gen
                if new not in seen:
                    if len(seen) == _GROUP_ORDER:
                        raise GroupNotClosed(f"the lambda maps generate more than {_GROUP_ORDER} matrices")
                    seen[new] = seen[mat] + word
                    nxt.append(new)
        frontier = nxt
    return sorted(seen.items(), key=lambda kv: (len(kv[1]), kv[1]))


def representative_condition(lam) -> bool:
    l1, l2, l3, l4 = lam
    return l4 >= 0 and l4 - l3 <= l3 and l3 <= l1 and l1 <= l2


def canonical_representative(s) -> tuple[ShiftVector, tuple[int, ...]]:
    """The orbit member in {0 <= (k+l-m)/2 <= -n <= k <= l} together with
    a generator word mapping s to it (lexicographically smallest shift
    among qualifying images as the tie-break)."""
    lam = to_lambda(s)
    best = None
    for mat, word in lambda_group():
        image = _mat_apply(mat, lam)
        if representative_condition(image):
            shift = from_lambda(image)
            if best is None or shift < best[0]:
                best = (shift, word)
    if best is None:
        raise NoRepresentativeFound(f"no qualifying image for {ShiftVector(*s)}")
    return best


def orbit_enumerate(s) -> set[ShiftVector]:
    """Closure of {s} under the five lambda actions (via the cached group)."""
    lam = to_lambda(s)
    return {from_lambda(_mat_apply(mat, lam)) for mat, _ in lambda_group()}


def qualifying_members(s) -> set[ShiftVector]:
    """Orbit members satisfying the representative condition (the
    exactly-one check reports any orbit where this is not a singleton)."""
    out = set()
    for member in orbit_enumerate(s):
        if representative_condition(to_lambda(member)):
            out.add(member)
    return out
