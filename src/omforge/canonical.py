"""Canonical keys for uniform oriented matroids.

The key is minimal over all relabelings, reorientations, and global
chirotope negation (+-chi encode the same cocircuit set).  Minimality
is with respect to the colex basis order, which makes the r-subsets of
a filled position prefix a contiguous string prefix, so branch and
bound can compare and prune entry by entry; the returned string is the
canonical representative re-serialized in the .chi lex-subset order.

Reorientation never branches: signs of the first r+1 decided bases are
gauged to their optimum directly (all '+', or all '+' with one forced
'-' when rank is even and the gauge parity obstructs), which pins the
per-position signs up to the documented two-fold ambiguity resolved by
exploring both solutions; every later position's sign is forced by its
first decided basis.

Above the exact-search budget (EXACT_LIMIT elements by default) a
documented invariant hash is returned instead, prefixed 'hash:' to flag
that it is not canonical.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .core import Chirotope, OrientedMatroid, signed_mask
from .signs import MINUS, PLUS

EXACT_LIMIT = 9  # largest n keyed exactly by default


@lru_cache(maxsize=None)
def _tables(n: int, r: int):
    """Per-level colex blocks of (r-1)-subsets, and string offsets."""
    blocks = []
    for k in range(n):
        subs = sorted(
            itertools.combinations(range(k), r - 1), key=lambda s: s[::-1]
        )
        blocks.append(tuple(subs))
    offsets = [math.comb(k, r) for k in range(n + 1)]
    return tuple(blocks), tuple(offsets)


def _element_invariants(om: OrientedMatroid) -> list:
    """Per-element profile preserved by relabeling, reorientation and
    negation: mutation adjacency count plus sorted pair counts."""
    from .faces import mutations

    n = om.n
    single = [0] * n
    pair = [[0] * n for _ in range(n)]
    for cert in mutations(om):
        for a in cert.basis:
            single[a] += 1
            for b in cert.basis:
                if b != a:
                    pair[a][b] += 1
    return [
        (single[e], tuple(sorted(pair[e][x] for x in range(n) if x != e)))
        for e in range(n)
    ]


def canonical_key(chi: Chirotope, exact_limit: int = EXACT_LIMIT, invariants=None) -> str:
    """Canonical chirotope string (lex-subset order) of the orbit.

    Minimization runs over relabelings that sort the per-element
    invariant profile; the result is still a chirotope string of the
    same class, so equality remains a complete isomorphism test.
    """
    if not chi.is_uniform():
        raise ValueError("canonical key requires a uniform chirotope")
    n, r = chi.n, chi.rank
    if n > exact_limit:
        return _invariant_hash(chi)
    if invariants is None:
        from .core import cocircuits_from_chirotope

        invariants = _element_invariants(cocircuits_from_chirotope(chi))
    inv = invariants
    required = sorted(inv)
    values = chi.signs
    blocks, offsets = _tables(n, r)
    total = math.comb(n, r)
    best = [2] * total  # 0 '+', 1 '-', 2 undecided sentinel

    def chi_at(seq) -> int:
        m, parity = signed_mask(seq)
        return values[m] * parity

    def compare_block(off, entries):
        """Compare against best, committing improvements; True if pruned."""
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
                committed = True
                best[slot] = c
                for t in range(slot + 1, total):
                    best[t] = 2
        return False

    def descend(level, perm, used, rho, g):
        if level == n:
            return
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

        for src in range(n):
            bit = 1 << src
            if used & bit or inv[src] != need:
                continue
            if level < r - 1:
                perm.append(src)
                rho.append(0)  # placeholder; resolved at level r
                descend(level + 1, perm, used | bit, rho, g)
                rho.pop()
                perm.pop()
            elif level == r - 1:
                # single decided basis; gauged to '+'
                if not compare_block(off, (0,)):
                    perm.append(src)
                    rho.append(0)
                    descend(level + 1, perm, used | bit, rho, g)
                    rho.pop()
                    perm.pop()
            elif level == r:
                perm.append(src)
                self_block_r(perm, used | bit, rho, g, src)
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
                        comm = True
                        best[slot] = c
                        for t in range(slot + 1, total):
                            best[t] = 2
                if not pruned:
                    perm.append(src)
                    rho.append(rk)
                    descend(level + 1, perm, used | bit, rho, g)
                    rho.pop()
                    perm.pop()

    def self_block_r(perm, used, rho, g, src):
        # Gauge resolution at position r.  With A, B the signed values
        # of the bases at positions {0..r-1} and {0..r-2, r}, and C_j of
        # the basis omitting position j (j <= r-2), the block entries
        # are d_j * u_j with d_j = A*B*C_j and u_j = rho_j * P
        # (P = prod of prefix rhos).  For odd rank every u is reachable
        # (block all '+', one rho solution); for even rank u has even
        # parity, so when prod d_j is '-' the colex-last entry takes the
        # forced '-', and two rho solutions (P = +-1) remain.
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
            return
        p_choices = (1, -1) if r % 2 == 0 else (prod,)
        for p_val in p_choices:
            new_rho = [x * p_val for x in u]
            new_rho.append(a_val * p_val)  # rho_{r-1}
            new_rho.append(b_val * p_val)  # rho_r
            descend(r + 1, perm, used, new_rho, g)

    for g in (PLUS, MINUS):
        descend(0, [], 0, [], g)
        if r % 2 == 1:
            break  # odd rank: -chi is the all-element reorientation of chi
    out = []
    for b in itertools.combinations(range(n), r):
        out.append("+" if best[_colex_index(b)] == 0 else "-")
    return "".join(out)


def _colex_index(b) -> int:
    return sum(math.comb(e, i + 1) for i, e in enumerate(b))


def _invariant_hash(chi: Chirotope) -> str:
    """Relabeling/reorientation-invariant fallback key (not canonical)."""
    import hashlib

    from .core import cocircuits_from_chirotope
    from .faces import mutations

    om = cocircuits_from_chirotope(chi)
    certs = mutations(om)
    counts = sorted(
        sum(1 for c in certs if e in c.basis) for e in range(chi.n)
    )
    payload = f"{chi.rank},{chi.n},{len(certs)},{counts}"
    digest = hashlib.sha256(payload.encode()).hexdigest()[:32]
    return f"hash:{digest}"


def canonical_form(om: OrientedMatroid, exact_limit: int = EXACT_LIMIT) -> str:
    """Canonical key of a uniform oriented matroid (dedup key for flip
    searches: equal iff same relabeling/reorientation class)."""
    cache = getattr(om, "_canonical_key", None)
    if cache is None:
        cache = {}
        om._canonical_key = cache
    if exact_limit in cache:
        return cache[exact_limit]
    chi = om.chirotope
    if chi is None:
        from .core import chirotope_from_cocircuits

        chi = chirotope_from_cocircuits(om)
    key = canonical_key(
        chi, exact_limit=exact_limit, invariants=_element_invariants(om)
    )
    cache[exact_limit] = key
    return key
