"""Cocircuit routes kept as test oracles.

Every oriented matroid is built on its chirotope: the library reads
minors, duals, direct sums and lexicographic extensions from its signs,
and loops, coloops and general position too when it is uniform.  These
functions read only the cocircuit set and the flat ranks derived from
its hyperplanes, so each chirotope formula is checked against an
independent route.  `special_position` makes non-uniform inputs to
check them on.
"""

import itertools

from omforge.core import om_from_points
from omforge.corpus import random_points
from omforge.signs import MINUS, PLUS, SignVector, bits, mask_of


def special_position(rng, r, n):
    """A seeded realizable configuration of n >= r + 2 points in rank r
    with a repeated point, a point on the line through two others and,
    now and then, the zero vector (a loop), in shuffled order."""
    loop = n >= r + 3 and rng.random() < 0.5
    pts = random_points(rng, r, n - 2 - loop, span=5, uniform=False)
    pts.append(list(pts[0]))
    pts.append([a + b for a, b in zip(pts[1], pts[2])])
    if loop:
        pts.append([0] * r)
    rng.shuffle(pts)
    return om_from_points(pts)


def minor_cocircuits(om, delete=(), contract=()):
    """(rank, cocircuits) of om with delete deleted and contract
    contracted: the cocircuits that vanish on the contracted set,
    restricted to the kept elements, keeping the support-minimal ones."""
    dset, cset = set(delete), set(contract)
    keep = [e for e in range(om.n) if e not in dset and e not in cset]
    cmask = mask_of(cset)
    rank = om.subset_rank(mask_of(keep) | cmask) - om.subset_rank(cmask)
    restricted = [
        x.restrict(keep) for x in om.cocircuits if not x.support_mask & cmask
    ]
    restricted = [y for y in restricted if not y.is_zero()]
    minimal = {
        y for y in restricted
        if not any(
            z.support_mask & ~y.support_mask == 0 and z.support_mask != y.support_mask
            for z in restricted
        )
    }
    return rank, frozenset(minimal)


def lex_localization(om, spec):
    """The localization of the lexicographic extension om[spec]: each
    cocircuit's first nonzero sign along the priority list, times that
    term's sign, or 0."""
    return {
        x: next((a * x[e] for e, a in spec.terms if x[e]), 0) for x in om.cocircuits
    }


def _orthogonal(x, y) -> bool:
    """Sign-orthogonality: the products x_e*y_e show both signs or none."""
    both = x.support_mask & y.support_mask
    if not both:
        return True
    agree = (x.pm & y.pm) | (x.mm & y.mm)
    disagree = (x.pm & y.mm) | (x.mm & y.pm)
    return bool(agree & both) and bool(disagree & both)


def dual_cocircuits(om):
    """The signed circuits of om, the cocircuits of its dual: on each
    minimal dependent support, the one signing (up to negation) that is
    orthogonal to every cocircuit."""
    supports = []
    for size in range(1, om.rank + 2):
        for s in itertools.combinations(range(om.n), size):
            if om.subset_rank(s) < size and not any(c < set(s) for c in supports):
                supports.append(set(s))
    out = set()
    for support in supports:
        first, *rest = sorted(support)
        found = []
        for pattern in itertools.product((PLUS, MINUS), repeat=len(rest)):
            signs = [0] * om.n
            signs[first] = PLUS
            for e, s in zip(rest, pattern):
                signs[e] = s
            cand = SignVector.from_signs(signs)
            if all(_orthogonal(cand, y) for y in om.cocircuits):
                found.append(cand)
        assert len(found) == 1, f"circuit support {support} has {len(found)} signings"
        out.update((found[0], -found[0]))
    return frozenset(out)


def direct_sum_cocircuits(a, b):
    """The cocircuits of a, zero-padded on b's elements, and those of b,
    zero-padded on a's."""
    n = a.n + b.n
    return frozenset(
        [SignVector(n, x.pm, x.mm) for x in a.cocircuits]
        + [SignVector(n, y.pm << a.n, y.mm << a.n) for y in b.cocircuits]
    )


def loops_of(om):
    """The closure of the empty set."""
    return frozenset(bits(om.closure_mask(0)))


def coloops_of(om):
    """The elements whose deletion drops the rank."""
    full = om.full_mask
    return frozenset(
        e for e in range(om.n) if om.subset_rank(full & ~(1 << e)) == om.rank - 1
    )


def in_general_position(om, e) -> bool:
    """No cocircuit vanishing on e has a zero set spanned without e."""
    ebit = 1 << e
    return not any(
        x.zero_mask & ebit and om.subset_rank(x.zero_mask & ~ebit) == om.rank - 1
        for x in om.cocircuits
    )
