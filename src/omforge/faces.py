"""Topes, simplicial topes / mutations, and mutation flips.

A tope is a maximal covector; it is simplicial iff it has exactly rank
adjacent cocircuits, iff some basis has pairwise-conformal base
cocircuits after sign normalization.  Mutations are identified with
bases; a certificate carries the normalized base cocircuits and their
composition (one tope of the antipodal pair).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    InvalidChirotope,
    OrientedMatroid,
    cocircuits_from_chirotope,
    flip_violations,
)
from .signs import SignVector, mask_of


def topes(om: OrientedMatroid) -> frozenset[SignVector]:
    """All maximal covectors, by closure of cocircuits under composition."""
    if om._tope_cache is not None:
        return om._tope_cache
    cocircuits = om.sorted_cocircuits()
    nonloop = om.full_mask & ~om.closure_mask(0)
    frontier = set(cocircuits)
    seen = set(frontier)
    full = []
    while frontier:
        nxt = set()
        for v in frontier:
            if v.support_mask & nonloop == nonloop:
                full.append(v)
                continue
            for x in cocircuits:
                if x.support_mask & ~v.support_mask:
                    w = v.compose(x)
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
        frontier = nxt
    om._tope_cache = frozenset(full)
    return om._tope_cache


def adjacent_cocircuits(om: OrientedMatroid, tope: SignVector) -> frozenset[SignVector]:
    """Cocircuits below the tope in the conformality order."""
    return frozenset(x for x in om.cocircuits if x.leq(tope))


def is_tope(om: OrientedMatroid, vec: SignVector) -> bool:
    return vec in topes(om)


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

    Normalization is seeded deterministically: within each block of the
    conformality-constraint graph the first unconstrained cocircuit gets
    a + sign on its own basis element, the rest propagate.
    """
    b = tuple(sorted(set(basis)))
    if om.subset_rank(b) != om.rank or len(b) != om.rank:
        raise ValueError(f"{b} is not a basis")
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
    if om._mutation_cache is not None:
        return om._mutation_cache
    out = []
    for b in itertools.combinations(range(om.n), om.rank):
        if om.subset_rank(b) != om.rank:
            continue
        cert = mutation_from_basis(om, b)
        if cert is not None:
            out.append(cert)
    om._mutation_cache = tuple(out)
    return om._mutation_cache


def adjacent_mutation_count(om: OrientedMatroid, e: int) -> int:
    """Number of mutation bases containing the element."""
    return sum(1 for cert in mutations(om) if e in cert.basis)


def min_adjacent_mutations(om: OrientedMatroid) -> int:
    """L statistic: minimum adjacency count over non-loop, non-coloop elements."""
    loops, coloops = om.loops(), om.coloops()
    counts = [
        adjacent_mutation_count(om, e)
        for e in range(om.n)
        if e not in loops and e not in coloops
    ]
    if not counts:
        raise ValueError("no eligible elements")
    return min(counts)


def flip(om: OrientedMatroid, cert: MutationCertificate) -> OrientedMatroid:
    """Negate the chirotope on the mutation basis.

    Uniform-with-chirotope only; staleness of the certificate is rejected
    up front.  When om's cocircuits were derived from its validated
    chirotope (`cocircuits_from_chirotope`, `reorient` or an earlier
    flip), only the Grassmann-Pluecker relations containing the basis are
    re-checked, and only the r cocircuit pairs on the basis's
    (r-1)-subsets change, each in one coordinate.  Any other om gets the
    full rebuild, `cocircuits_from_chirotope`, which is also the oracle
    the incremental route is tested against.
    """
    if om.chirotope is None or not om.is_uniform():
        raise ValueError("flip requires a uniform oriented matroid with chirotope")
    fresh = mutation_from_basis(om, cert.basis)
    if fresh is None or any(x not in om.cocircuits for x in cert.cocircuit_vectors()):
        raise ValueError("stale certificate: not a mutation of this oriented matroid")
    chi = om.chirotope.with_basis_flipped(cert.basis)
    what = "flip produced an invalid chirotope"
    if not om._from_valid_chirotope:
        try:
            return cocircuits_from_chirotope(chi, provenance="derived")
        except InvalidChirotope as exc:
            raise InvalidChirotope(exc.violations, what) from None
    bmask = mask_of(cert.basis)
    violations = flip_violations(chi, bmask)
    if violations:
        raise InvalidChirotope(violations, what)
    cocircuits = set(om.cocircuits)
    for e in cert.basis:
        x = om.cocircuit_with_zero(bmask & ~(1 << e))
        y = x.reorient(1 << e)
        cocircuits -= {x, -x}
        cocircuits |= {y, -y}
    out = OrientedMatroid(om.n, om.rank, cocircuits, provenance="derived", chirotope=chi)
    out._from_valid_chirotope = True
    return out


def flip_basis(om: OrientedMatroid, basis: Iterable[int]) -> OrientedMatroid:
    cert = mutation_from_basis(om, basis)
    if cert is None:
        raise ValueError(f"{tuple(basis)} is not a mutation basis")
    return flip(om, cert)
