"""Canonical keys for uniform oriented matroids.

The key is minimal over all relabelings, reorientations, and global
chirotope negation (+-chi encode the same cocircuit set).  Minimality
is with respect to the colex basis order, which makes the r-subsets of
a filled position prefix a contiguous string prefix, so branch and
bound can compare and prune entry by entry; the returned string is the
canonical representative re-serialized in the .chi lex-subset order.

Reorientation never branches: signs of the first r+1 decided bases are
gauged to their optimum directly (all '+', or all '+' with one forced
'-' when rank is even and the gauge parity obstructs), and every later
position's sign is forced by its first decided basis.  At even rank the
gauge leaves two solutions, P = +-1, and only P = +1 is searched: P = -1
negates the signs of positions 0..r, and with them every later sign,
which is read off a basis over r-1 negated positions.  Each entry is a
product over r positions, so it is unchanged, and the P = -1 subtree
spells exactly the P = +1 subtree's strings.

Global negation needs a second pass over -chi at even rank only (at odd
rank -chi is the all-element reorientation of chi).  That pass ends at
its first leaf when the leaf ties the first pass: the tie is a colour-
preserving map that takes -chi into chi's class, so the pass's leaf
strings are the first pass's, its minimum is the key already found, and
the winning leaf stays the first pass's.  Only the automorphisms the
pass would have found later are lost.

Symmetric classes are cut down in two ways.  The relabelings are those
that sort the element colouring, refined to a fixed point over the
mutation bases.  And the search prunes with automorphisms it finds
(McKay & Piperno, "Practical graph isomorphism, II", 2014): two leaves
of one negation pass that spell the same string differ by an element
map that preserves the chirotope up to reorientation.  The search then
leaves the later leaf's subtree at the level where the two paths part,
and skips every child in the orbit of a tried sibling under the maps
found so far that fix the node's prefix.  Equivalent subtrees hold the
same minimum, so the key is the one the full search would give.

The search returns more than the key (`KeySearch`): the relabelling,
per-position reorientation and global sign of the leaf that spells it,
and the element maps it found.  Two chirotopes with one key are thus
related by an explicit map, and a flip of one is a flip of the other at
the mapped basis; the flip-graph search fills its key memo from these.
Keys of rank <= 2 need no search and carry no transform.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple, Optional

from .core import Chirotope, OrientedMatroid, signed_mask
from .signs import MINUS, PLUS


@lru_cache(maxsize=None)
def _tables(n: int, r: int):
    """Per-level colex blocks of (r-1)-subsets, string offsets, and the
    colex index of each r-subset in lex order (the output order)."""
    blocks = []
    for k in range(n):
        subs = sorted(
            itertools.combinations(range(k), r - 1), key=lambda s: s[::-1]
        )
        blocks.append(tuple(subs))
    offsets = [math.comb(k, r) for k in range(n + 1)]
    lex_to_colex = tuple(
        _colex_index(b) for b in itertools.combinations(range(n), r)
    )
    return tuple(blocks), tuple(offsets), lex_to_colex


def _ranks(values: list) -> list:
    """Each value's index among the sorted distinct values: small ints
    whose order and equality follow the values, not the labels."""
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


def _element_invariants(om: OrientedMatroid) -> list:
    """Per-element colour preserved by relabeling, reorientation and
    negation.

    The start colour is the mutation adjacency count plus the sorted
    counts of mutations through each pair and each triple holding the
    element.  It is then refined to a fixed point (equitable-partition
    refinement over the mutation bases): an element's next colour is its
    colour plus the sorted multiset, over the mutations holding it, of
    the sorted colours of the mutation's other elements.  Colours are
    ranks of label-free values, so isomorphic inputs get the same
    colours on corresponding elements.

    The counts come from integer tables filled in one pass over the
    bases: pair[e*n + a] counts the mutations through {e, a}, and
    triple[e][a*n + b] (a < b) those through {e, a, b}.  They hold the
    same numbers as counting by sorted tuples, so the start tuples, and
    with them the colours, are the same.
    """
    from .faces import mutation_bases

    n = om.n
    holding: list = [[] for _ in range(n)]
    pair = [0] * (n * n)
    triple = [[0] * (n * n) for _ in range(n)]
    for basis in mutation_bases(om):
        for e in basis:
            holding[e].append(basis)
        for a, b in itertools.combinations(basis, 2):
            pair[a * n + b] += 1
            pair[b * n + a] += 1
        for a, b, c in itertools.combinations(basis, 3):
            triple[a][b * n + c] += 1
            triple[b][a * n + c] += 1
            triple[c][a * n + b] += 1

    def start(e):
        others = [x for x in range(n) if x != e]
        row = triple[e]
        return (
            len(holding[e]),
            tuple(sorted(pair[e * n + a] for a in others)),
            tuple(
                sorted(row[a * n + b] for a, b in itertools.combinations(others, 2))
            ),
        )

    colours = _ranks([start(e) for e in range(n)])
    while True:
        refined = _ranks(
            [
                (
                    colours[e],
                    tuple(
                        sorted(
                            tuple(sorted(colours[x] for x in basis if x != e))
                            for basis in holding[e]
                        )
                    ),
                )
                for e in range(n)
            ]
        )
        # a step only splits colours, so an equal count is the fixed point
        if len(set(refined)) == len(set(colours)):
            return colours
        colours = refined


class KeySearch(NamedTuple):
    """A canonical key and the leaf of the search that spells it.

    With perm, rho and g, the key's entry for the positions P is
    g * chi(perm[P]) * prod(rho[p] for p in P): the element perm[p] goes
    to position p, reoriented by rho[p], and the whole is negated when
    g < 0.  Each map sigma in gens sends element e to sigma[e] and
    preserves chi up to reorientation.  perm, rho and g are None, and
    gens is empty, for keys of rank <= 2, which need no search.
    """

    key: str
    perm: Optional[tuple]
    rho: Optional[tuple]
    g: Optional[int]
    gens: tuple


def canonical_key(chi: Chirotope, invariants=None) -> str:
    """Canonical chirotope string (lex-subset order) of the orbit."""
    return key_search(chi, invariants).key


def key_search(chi: Chirotope, invariants=None) -> KeySearch:
    """The canonical key of chi's orbit, with the transform that spells
    it and the automorphisms found on the way.

    Minimization runs over relabelings that sort the per-element
    invariant profile; the result is still a chirotope string of the
    same class, so equality remains a complete isomorphism test.
    """
    if not chi.is_uniform():
        raise ValueError("canonical key requires a uniform chirotope")
    n, r = chi.n, chi.rank
    if invariants is None:
        from .core import cocircuits_from_chirotope

        invariants = _element_invariants(cocircuits_from_chirotope(chi))
    if r <= 2:
        # every uniform chirotope of rank <= 2 has the all-'+' chirotope
        # in its class: reorient its vectors into the open upper
        # half-plane and order them by angle.  That is the least string,
        # so it is the key the search below would reach.
        return KeySearch("+" * math.comb(n, r), None, None, None, ())
    inv = invariants
    required = sorted(inv)
    values = chi.signs
    blocks, offsets, lex_to_colex = _tables(n, r)
    total = math.comb(n, r)
    best = [2] * total  # 0 '+', 1 '-', 2 undecided sentinel
    dirty = False  # best changed since the last leaf
    ref_perm = None  # first leaf of the current pass spelling best
    winner = None  # (perm, rho, g) of the last leaf that set best
    gens: list = []  # element maps found: automorphisms up to reorientation

    def chi_at(seq) -> int:
        m, parity = signed_mask(seq)
        return values[m] * parity

    def compare_block(off, entries):
        """Compare against best, committing improvements; True if pruned."""
        nonlocal dirty
        committed = False
        for idx, c in enumerate(entries):
            slot = off + idx
            if committed:
                best[slot] = c
                continue
            b = best[slot]
            if c > b:
                return True
            if c < b:
                committed = dirty = True
                best[slot] = c
                for t in range(slot + 1, total):
                    best[t] = 2
        return False

    def leaf(perm, rho, g) -> int:
        nonlocal dirty, ref_perm, winner
        if not dirty and ref_perm is None:
            return -1  # the negated pass ties the first: it spells no less
        if dirty:
            winner = (tuple(perm), tuple(rho), g)
            dirty = False
            ref_perm = perm[:]
            return n
        # same string as the reference leaf: record the map between them
        # and unwind to the node where their paths part
        level = next(i for i, (q, p) in enumerate(zip(ref_perm, perm)) if q != p)
        sigma = [0] * n
        for q, p in zip(ref_perm, perm):
            sigma[q] = p
        gens.append(sigma)
        return level

    def descend(level, perm, used, rho, g) -> int:
        """Search below the prefix perm; returns the level of the node to
        unwind to after an automorphism is found, or n to carry on."""
        nonlocal dirty
        if level == n:
            return leaf(perm, rho, g)
        block = blocks[level]
        off = offsets[level]
        need = required[level]
        if level > r:
            # lazily built per-node data: prefix mask, parity * rho product
            subinfo: list = []

            def sub_at(idx):
                while len(subinfo) <= idx:
                    # signed_mask inlined: the hot loop of the search
                    pmask = 0
                    signed = g
                    for p in block[len(subinfo)]:
                        e = perm[p]
                        if (pmask >> e).bit_count() & 1:
                            signed = -signed
                        pmask |= 1 << e
                        signed *= rho[p]
                    subinfo.append((pmask, signed))
                return subinfo[idx]

        tried: list = []  # children examined here
        orbit = None
        known = 0  # generators seen when orbit was last built
        for src in range(n):
            bit = 1 << src
            if used & bit or inv[src] != need:
                continue
            if known < len(gens):
                known = len(gens)
                orbit = _orbits(gens, perm, n)
            if orbit is not None and any(orbit[t] == orbit[src] for t in tried):
                continue
            tried.append(src)
            jump = n
            if level < r - 1:
                perm.append(src)
                rho.append(0)  # placeholder; resolved at level r
                jump = descend(level + 1, perm, used | bit, rho, g)
                rho.pop()
                perm.pop()
            elif level == r - 1:
                # single decided basis; gauged to '+'
                if not compare_block(off, (0,)):
                    perm.append(src)
                    rho.append(0)
                    jump = descend(level + 1, perm, used | bit, rho, g)
                    rho.pop()
                    perm.pop()
            elif level == r:
                perm.append(src)
                jump = self_block_r(perm, used | bit, rho, g, src)
                perm.pop()
            else:
                pruned = False
                comm = False
                rk = 0
                shift = src + 1
                for idx in range(len(block)):
                    pmask, signed = sub_at(idx)
                    v = values[pmask | bit] * signed
                    if (pmask >> shift).bit_count() & 1:
                        v = -v
                    if idx == 0:
                        rk = v
                        c = 0
                    else:
                        c = 0 if v * rk > 0 else 1
                    slot = off + idx
                    if comm:
                        best[slot] = c
                        continue
                    b = best[slot]
                    if c > b:
                        pruned = True
                        break
                    if c < b:
                        comm = dirty = True
                        best[slot] = c
                        for t in range(slot + 1, total):
                            best[t] = 2
                if not pruned:
                    perm.append(src)
                    rho.append(rk)
                    jump = descend(level + 1, perm, used | bit, rho, g)
                    rho.pop()
                    perm.pop()
            if jump < level:
                return jump
        return n

    def self_block_r(perm, used, rho, g, src):
        # Gauge resolution at position r.  With A, B the signed values
        # of the bases at positions {0..r-1} and {0..r-2, r}, and C_j of
        # the basis omitting position j (j <= r-2), the block entries
        # are d_j * u_j with d_j = A*B*C_j and u_j = rho_j * P
        # (P = prod of prefix rhos).  For odd rank every u is reachable
        # (block all '+', one rho solution); for even rank u has even
        # parity, so when prod d_j is '-' the colex-last entry takes the
        # forced '-'.  Of its two rho solutions only P = +1 is searched:
        # P = -1 negates every rho (each later rho_k is a product of r-1
        # of them), so each entry, a product of r rhos, is unchanged.
        base = perm[:r]
        a_val = g * chi_at(base)
        b_val = g * chi_at(base[: r - 1] + [src])
        ds = []
        for j in range(r - 1):
            seq = [base[p] for p in range(r) if p != j]
            seq.append(src)
            ds.append(a_val * b_val * g * chi_at(seq))
        prod = 1
        for d in ds:
            prod *= d
        u = list(ds)
        entries = [0] * r
        if r % 2 == 0 and prod < 0:
            u[0] = -u[0]
            entries[r - 1] = 1  # block entry i corresponds to j = r-1-i
        if compare_block(offsets[r], entries):
            return n
        p_val = 1 if r % 2 == 0 else prod
        new_rho = [x * p_val for x in u] + [a_val * p_val, b_val * p_val]
        return descend(r + 1, perm, used, new_rho, g)

    for g in (PLUS, MINUS):
        # a leaf tying with one of the other pass differs from it by a
        # map that negates the chirotope: no symmetry of this pass's tree
        ref_perm = None
        descend(0, [], 0, [], g)
        if r % 2 == 1:
            break  # odd rank: -chi is the all-element reorientation of chi
    key = "".join("+" if best[i] == 0 else "-" for i in lex_to_colex)
    return KeySearch(key, *winner, tuple(tuple(sigma) for sigma in gens))


def _orbits(gens, fixed, n: int) -> list:
    """Orbit label of each element under the maps in gens that fix every
    element of `fixed`."""
    label = list(range(n))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    for sigma in gens:
        if all(sigma[e] == e for e in fixed):
            for x in range(n):
                a, b = find(x), find(sigma[x])
                if a != b:
                    label[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def _colex_index(b) -> int:
    return sum(math.comb(e, i + 1) for i, e in enumerate(b))


def canonical_search(om: OrientedMatroid) -> KeySearch:
    """`key_search` of a uniform oriented matroid, run once and kept on
    the oriented matroid."""
    if om._key_search is None:
        om._key_search = key_search(om.chirotope, invariants=_element_invariants(om))
    return om._key_search


def canonical_form(om: OrientedMatroid) -> str:
    """Canonical key of a uniform oriented matroid (dedup key for flip
    searches: equal iff same relabeling/reorientation class)."""
    return canonical_search(om).key
