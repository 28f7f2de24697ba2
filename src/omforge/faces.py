"""Topes, simplicial topes / mutations, and mutation flips.

A tope is a maximal covector: its support is every non-loop.  Topes
are found by a walk on the tope graph, one wall test at a time.  Let T
be a tope and P a parallel class of non-loops.  T with P flipped is a
tope iff the cocircuits that vanish on P and conform to T cover every
non-loop outside P.  This is exact: every covector is the conformal
composition of the cocircuits below it, so the test holds iff "T with
P set to 0" is a covector V, and then V composed with -T is the
flipped tope.  Conversely, eliminating an element of P between T and
the flipped tope gives a covector that agrees with T outside P and
vanishes on P, since the zero set of a covector is a flat.  The tope
graph of the simplification is connected, so the walk from any tope
reaches them all.  The same test at the whole support decides whether
a sign vector is a tope.

A tope is simplicial iff it has exactly rank adjacent cocircuits, iff
some basis has pairwise-conformal base cocircuits after sign
normalization.  Mutations are identified with bases; a certificate
carries the normalized base cocircuits and their composition (one tope
of the antipodal pair).

For a uniform oriented matroid of rank >= 1, the mutation bases come
from the chirotope's sign test `Chirotope.is_mutation`, and a flip
negates one sign and derives the child's cocircuits only when something
asks for them.  The cocircuit route (`mutation_from_basis` over every
basis) is the oracle, and the route for the other oriented matroids.

A flip inherits the mutation bases of its parent when they are known.
The sign test at a basis B' reads only the signs of the bases that
share r-1 elements with B', and a flip at B changes the sign of B
alone.  So the verdict can change only on the r(n-r) bases next to B,
which the child tests again; every other basis, B included, keeps the
parent's verdict.  The full sign test over every basis is the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import OrientedMatroid
from .signs import SignVector, bits, mask_of


def _cover(cocircuits, pm: int, mm: int) -> int:
    """Union of the supports of the (plus, minus) mask pairs conformal
    to the sign vector with plus mask pm and minus mask mm."""
    cover = 0
    for xp, xm in cocircuits:
        if not (xp & mm or xm & pm):
            cover |= xp | xm
    return cover


def topes(om: OrientedMatroid) -> frozenset[SignVector]:
    """All maximal covectors, by a depth-first walk on the tope graph.

    The walk starts from the composition of every cocircuit and moves
    across one wall at a time: from T it flips one parallel class P of
    non-loops when the cocircuits that vanish on P and conform to T
    cover every non-loop outside P.  The test holds iff T with P set to
    0 is a covector (the composition of the cocircuits below it), and
    that covector composed with -T is the flipped tope; elimination
    gives the converse, and the tope graph of the simplification is
    connected.  Topes are kept as plus masks; the minus mask is the
    rest of the non-loops.  A rank-0 oriented matroid has one tope, the
    zero vector.
    """
    if om._tope_cache is not None:
        return om._tope_cache
    nonloop = om.full_mask & ~om.closure_mask(0)
    cocircuits = [(x.pm, x.mm) for x in om.sorted_cocircuits()]
    start = minus = 0
    for xp, xm in cocircuits:
        free = ~(start | minus)
        start |= xp & free
        minus |= xm & free
    walls = []
    rest = nonloop
    while rest:
        p = om.closure_mask(rest & -rest) & nonloop
        below = [(xp, xm) for xp, xm in cocircuits if not (xp | xm) & p]
        walls.append((p, nonloop & ~p, below))
        rest &= ~p
    seen = {start}
    stack = [start]
    while stack:
        pm = stack.pop()
        mm = nonloop & ~pm
        for p, outside, below in walls:
            flipped = pm ^ p
            if flipped not in seen and _cover(below, pm, mm) == outside:
                seen.add(flipped)
                stack.append(flipped)
    om._tope_cache = frozenset(SignVector(om.n, pm, nonloop & ~pm) for pm in seen)
    return om._tope_cache


def adjacent_cocircuits(om: OrientedMatroid, tope: SignVector) -> frozenset[SignVector]:
    """Cocircuits below the tope in the conformality order."""
    return frozenset(x for x in om.cocircuits if x.leq(tope))


def is_tope(om: OrientedMatroid, vec: SignVector) -> bool:
    """The wall test at the whole support: a tope is supported on exactly
    the non-loops, and the cocircuits conformal to it cover them."""
    nonloop = om.full_mask & ~om.closure_mask(0)
    if vec.n != om.n or vec.support_mask != nonloop:
        return False
    pairs = ((x.pm, x.mm) for x in om.sorted_cocircuits())
    return _cover(pairs, vec.pm, vec.mm) == nonloop


def is_simplicial_tope(om: OrientedMatroid, tope: SignVector) -> bool:
    """Simplicial iff the tope has exactly `rank` adjacent cocircuits."""
    if not is_tope(om, tope):
        raise ValueError("not a tope of this oriented matroid")
    return len(adjacent_cocircuits(om, tope)) == om.rank


@dataclass(frozen=True)
class MutationCertificate:
    """A basis whose base cocircuits are conformal after normalization."""

    basis: tuple[int, ...]
    base_cocircuits: tuple[tuple[int, SignVector], ...]  # (basis element, vector)
    tope: SignVector

    def cocircuit_for(self, b: int) -> SignVector:
        for e, x in self.base_cocircuits:
            if e == b:
                return x
        raise KeyError(b)

    def cocircuit_vectors(self) -> tuple[SignVector, ...]:
        return tuple(x for _, x in self.base_cocircuits)

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis),
            "tope": self.tope.to_string(),
            "base_cocircuits": {
                str(e): x.to_string() for e, x in self.base_cocircuits
            },
        }


def base_cocircuit(om: OrientedMatroid, b: int, basis: Iterable[int]) -> SignVector:
    """One of the +- pair vanishing on the closure of basis minus b."""
    rest = [e for e in basis if e != b]
    zmask = om.closure_mask(mask_of(rest))
    x = om.cocircuit_with_zero(zmask)
    if x is None:
        raise ValueError(f"no cocircuit with zero set closure({rest})")
    return x


def mutation_from_basis(
    om: OrientedMatroid, basis: Iterable[int]
) -> Optional[MutationCertificate]:
    """Certificate for the basis, or None if no conformal normalization.
    A rank-0 oriented matroid has no mutation: its empty basis has no
    cocircuit to bound a tope.

    Normalization is seeded deterministically: within each block of the
    conformality-constraint graph the first unconstrained cocircuit gets
    a + sign on its own basis element, the rest propagate.
    """
    b = tuple(sorted(set(basis)))
    if om.subset_rank(b) != om.rank or len(b) != om.rank:
        raise ValueError(f"{b} is not a basis")
    if not b:
        return None
    raw = [base_cocircuit(om, e, b) for e in b]
    chosen: list[Optional[SignVector]] = [None] * len(raw)
    for i in range(len(raw)):
        if chosen[i] is not None:
            continue
        x = raw[i]
        if x[b[i]] < 0:
            x = -x
        chosen[i] = x
        # propagate forced signs until stable
        changed = True
        while changed:
            changed = False
            for j in range(len(raw)):
                if chosen[j] is not None:
                    continue
                y = raw[j]
                fixed = [c for c in chosen if c is not None]
                pos = all(c.conformal(y) for c in fixed)
                neg = all(c.conformal(-y) for c in fixed)
                if pos and neg:
                    continue  # disjoint support so far; seeds a later block
                if not pos and not neg:
                    return None
                chosen[j] = y if pos else -y
                changed = True
    vecs = [v for v in chosen if v is not None]
    for x, y in itertools.combinations(vecs, 2):
        if not x.conformal(y):
            return None
    tope = vecs[0]
    for v in vecs[1:]:
        tope = tope.compose(v)
    return MutationCertificate(b, tuple(zip(b, vecs)), tope)


def certificate_topes(om: OrientedMatroid, basis: Iterable[int]) -> frozenset[SignVector]:
    """Topes arising from every conformal sign normalization of the basis."""
    b = tuple(sorted(set(basis)))
    raw = [base_cocircuit(om, e, b) for e in b]
    out = set()
    for pattern in itertools.product((1, -1), repeat=len(raw)):
        vecs = [x if s > 0 else -x for x, s in zip(raw, pattern)]
        if all(x.conformal(y) for x, y in itertools.combinations(vecs, 2)):
            t = vecs[0]
            for v in vecs[1:]:
                t = t.compose(v)
            out.add(t)
    return frozenset(out)


def mutations(om: OrientedMatroid) -> tuple[MutationCertificate, ...]:
    """Certificates over all bases, one per basis, deterministic order."""
    if om._mutation_cache is None:
        if om._uniform_chirotope():
            candidates = mutation_bases(om)
        else:
            candidates = (
                b for b in itertools.combinations(range(om.n), om.rank)
                if om.subset_rank(b) == om.rank
            )
        certs = (mutation_from_basis(om, b) for b in candidates)
        om._mutation_cache = tuple(c for c in certs if c is not None)
    return om._mutation_cache


def mutation_bases(om: OrientedMatroid) -> tuple[tuple[int, ...], ...]:
    """The mutation bases in lexicographic order: by the sign test on a
    uniform oriented matroid's chirotope, else the bases of `mutations`."""
    if om._mutation_bases is None:
        if om._uniform_chirotope():
            chi = om.chirotope
            om._mutation_bases = tuple(
                b for b in itertools.combinations(range(om.n), om.rank)
                if chi.is_mutation(mask_of(b))
            )
        else:
            om._mutation_bases = tuple(cert.basis for cert in mutations(om))
    return om._mutation_bases


def mutation_adjacency(om: OrientedMatroid) -> dict[int, int]:
    """Number of mutation bases containing each non-loop, non-coloop
    element (ascending), counted in one pass over the mutation bases."""
    loops, coloops = om.loops(), om.coloops()
    counts = [0] * om.n
    for b in mutation_bases(om):
        for e in b:
            counts[e] += 1
    return {
        e: c for e, c in enumerate(counts) if e not in loops and e not in coloops
    }


def min_adjacent_mutations(om: OrientedMatroid) -> int:
    """L statistic: minimum adjacency count over non-loop, non-coloop
    elements; ValueError when there are none."""
    adjacency = mutation_adjacency(om)
    if not adjacency:
        raise ValueError("no eligible elements")
    return min(adjacency.values())


def flip(om: OrientedMatroid, cert: MutationCertificate) -> OrientedMatroid:
    """`flip_basis` at the certificate's basis; a stale certificate,
    whose cocircuits are not all cocircuits of om, is rejected."""
    if any(x not in om.cocircuits for x in cert.cocircuit_vectors()):
        raise ValueError("stale certificate: not a mutation of this oriented matroid")
    return flip_basis(om, cert.basis)


def flip_basis(om: OrientedMatroid, basis: Iterable[int]) -> OrientedMatroid:
    """Negate the chirotope on a mutation basis.

    Uniform of rank >= 1 only.  The sign test decides the mutation, so
    the flipped chirotope is valid without a check; the child derives
    its cocircuits on first use.  `cocircuits_from_chirotope` of the
    flipped chirotope is the oracle this is tested against.

    When om's mutation bases are cached, the child's are inherited: the
    sign test at a basis reads only the bases next to it, so only the
    r(n-r) bases sharing r-1 elements with this one are tested again
    (r(n-r) sign tests in place of C(n,r)).  The others, this basis
    included, keep om's verdict.  The child also records this basis and
    om, so that its programs with one element in the basis read om's
    verdicts once om has decided them (the flip rule in the `programs`
    docstring).
    """
    if not om._uniform_chirotope():
        raise ValueError("flip requires a uniform oriented matroid of rank >= 1")
    chi = om.chirotope
    b = tuple(sorted(set(basis)))
    if len(b) != om.rank or not all(0 <= e < om.n for e in b):
        raise ValueError(f"{b} is not a basis")
    m = mask_of(b)
    if not chi.is_mutation(m):
        raise ValueError(f"{b} is not a mutation basis")
    child = OrientedMatroid(chi.with_basis_flipped(b))
    if om._mutation_bases is not None:
        child._mutation_bases = _inherited_bases(om._mutation_bases, child.chirotope, m)
    child._flipped_from = (m, om)
    return child


def _inherited_bases(parent_bases, chi, m: int) -> tuple[tuple[int, ...], ...]:
    """The mutation bases of chi, the flip at basis mask m of a chirotope
    whose mutation bases are parent_bases: the sign test re-run on the
    bases next to m, every other verdict read from the parent."""
    near = chi.rank - 1
    out = [b for b in parent_bases if (mask_of(b) & m).bit_count() != near]
    outside = [s for s in range(chi.n) if not m >> s & 1]
    for p in bits(m):
        for s in outside:
            nm = m ^ (1 << p | 1 << s)
            if chi.is_mutation(nm):
                out.append(tuple(bits(nm)))
    out.sort()
    return tuple(out)
