"""Sparse division by a divisor of any length, remainder keys in a heap
(Monagan & Pearce): the branch qforge.poly dropped when it kept monomial
and binomial divisors only.  The oracle of poly._quotient, and of the
tests that divide by longer polynomials such as Phi_l."""

import heapq
import math

from qforge import poly
from qforge.poly import MultiPoly


def heap_quotient(nums: dict, fnums: dict, tops: int):
    """poly._quotient for any divisor: the integer numerators of nums /
    fnums on one packed layout, or None when the division leaves a
    remainder."""
    (kl, cl), *rest = sorted(fnums.items(), reverse=True)
    rem = dict(nums)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue
        if ((k | tops) - kl) & tops != tops:
            return None
        t, r = divmod(c, cl)
        if r:
            return None
        k -= kl
        out[k] = t
        for k2, c2 in rest:
            key = k + k2
            if key & tops:
                return None
            s = rem.get(key)
            if s is None:
                rem[key] = -t * c2
                heapq.heappush(heap, -key)
            elif s == t * c2:
                del rem[key]
            else:
                rem[key] = s - t * c2
    return out


def heap_divide(p: MultiPoly, f: MultiPoly) -> MultiPoly | None:
    """MultiPoly.divide for a nonzero divisor of any length: p / f, or
    None when f does not divide p."""
    p, f = poly._align(p, f)
    g = math.gcd(*f.nums.values())
    nums = heap_quotient(p.nums, {k: c // g for k, c in f.nums.items()},
                         poly._layout(len(p.vars), p.width)[2])
    if nums is None:
        return None
    out = poly._raw(p.vars, p.width, nums, p.den)
    return out if f.den == g == 1 else out._scale(f.den, g)
