"""Oriented matroids on their chirotopes, and their structural operations.

A Chirotope is the alternating sign map on r-subsets (uniform or not),
exact over the rationals when built from a point configuration.  An
OrientedMatroid is built on a valid chirotope, which fixes it up to a
global sign (Bjoerner et al., *Oriented Matroids*, Sec. 3.5): mutations
and flips read its signs, and the cocircuits, hyperplanes and flat ranks
are derived from it on first use.  A cocircuit set enters through one
checking door, `om_from_cocircuits`, which recovers its chirotope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .signs import MINUS, PLUS, SignVector, bits, mask_of


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _integer_row(row: Sequence) -> list[int]:
    """The row times the positive LCM of its denominators: the same
    rank and determinant sign, over the integers.  Int rows pass as is."""
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    scale = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs]


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form (Bareiss, 1968) of an exact matrix.

    Returns the echelon rows over the integers (rows scaled by
    `_integer_row`), the pivot column of each nonzero row, and the
    parity of the row swaps.  Each step divides exactly by the previous
    pivot, so the entry at row k, column pivots[k] is the minor on the
    first k+1 rows and pivot columns of the swapped, scaled matrix; for
    a square nonsingular matrix the last pivot is that matrix's
    determinant, so parity times its sign is the input's determinant sign.
    """
    m = [_integer_row(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    parity = PLUS
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        piv = next((i for i in range(k, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            parity = -parity
        top = m[k]
        p = top[col]
        for row in m[k + 1:]:
            a = row[col]
            for j in range(col, ncols):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
        pivots.append(col)
    return m, pivots, parity


def det_sign(rows: Sequence[Sequence]) -> int:
    """Sign of the determinant of a square matrix with exact entries."""
    m, pivots, parity = _echelon(rows)
    if len(pivots) < len(m):
        return 0
    return parity if not m or m[-1][-1] > 0 else -parity


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix with exact entries."""
    return len(_echelon(rows)[1])


def signed_mask(seq: Sequence[int]) -> tuple[int, int]:
    """Bitmask of seq and the sign of the permutation sorting it.

    The sign is the parity of the inversions, counted as the earlier
    elements above each element (a popcount); it is 0 on a repeat.
    """
    mask = 0
    inversions = 0
    for e in seq:
        bit = 1 << e
        if mask & bit:
            return mask, 0
        inversions += (mask >> e).bit_count()
        mask |= bit
    return mask, MINUS if inversions & 1 else PLUS


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"axiom": axiom, "witness": _witness_strings(witness)}
                for axiom, witness in self.violations
            ],
        }


def _witness_strings(witness) -> list[str]:
    """A violation's witness, sign vectors as sign strings."""
    return [w.to_string() if isinstance(w, SignVector) else str(w) for w in witness]


# ---------------------------------------------------------------------------
# chirotope
# ---------------------------------------------------------------------------

MAX_ELEMENTS = 20  # a chirotope's sign list has 2**n entries


def _check_size(rank: int, n: int) -> None:
    if rank < 1 or n < rank:
        raise ValueError("need 1 <= rank <= n")
    _check_dense(n)


def _check_dense(n: int) -> None:
    if n > MAX_ELEMENTS:
        raise ValueError(f"chirotopes are stored densely, for n <= {MAX_ELEMENTS}")


def _failure(what: str, rule: str, witness) -> str:
    """One violation as '<what>: <rule> fails at <witness>'."""
    shown = " ".join(_witness_strings(witness))
    return f"{what}: {rule} fails" + (f" at {shown}" if shown else "")


class InvalidChirotope(ValueError):
    """A chirotope failed the axiom check; names the first violation and
    carries them all."""

    def __init__(self, violations, what: str = "invalid chirotope"):
        self.violations = tuple(violations)
        super().__init__(_failure(what, *self.violations[0]))


class InvalidCocircuits(ValueError):
    """A cocircuit set failed the axiom check; names the first violation
    and carries them all."""

    def __init__(self, violations, what: str = "invalid cocircuit set"):
        self.violations = tuple(violations)
        axiom, witness = self.violations[0]
        super().__init__(_failure(what, f"axiom {axiom}", witness))


class Chirotope:
    """Alternating sign map on ordered r-tuples.

    `signs` is one flat list indexed by basis bitmask: signs[mask] is the
    sign on the sorted r-subset with that mask, and every other entry is
    0.  The sign on an ordered tuple is the sorted subset's sign times the
    parity of the sorting permutation (`signed_mask`).
    """

    __slots__ = ("rank", "n", "signs")

    def __init__(self, rank: int, n: int, signs: dict):
        """signs maps r-subsets (tuples) to signs; missing subsets get 0."""
        _check_size(rank, n)
        self.rank = rank
        self.n = n
        self.signs = [0] * (1 << n)
        for b, s in signs.items():
            m = mask_of(b)
            if m.bit_count() != rank or m >> n:
                raise ValueError(f"{b} is not a {rank}-subset of 0..{n - 1}")
            self.signs[m] = s

    @classmethod
    def _dense(cls, rank: int, n: int, signs: list) -> "Chirotope":
        out = cls.__new__(cls)
        out.rank, out.n, out.signs = rank, n, signs
        return out

    @classmethod
    def from_points(cls, points: Sequence[Sequence]) -> "Chirotope":
        """Basis orientations of a rational vector configuration (rows)."""
        n = len(points)
        if n == 0:
            raise ValueError("empty configuration")
        r = len(points[0])
        if any(len(p) != r for p in points):
            raise ValueError("ragged configuration")
        if matrix_rank(points) < r:
            raise ValueError(f"configuration has rank < {r}")
        signs = {}
        for b in itertools.combinations(range(n), r):
            signs[b] = det_sign([points[i] for i in b])
        return cls(r, n, signs)

    @classmethod
    def from_string(cls, rank: int, n: int, s: str) -> "Chirotope":
        _check_size(rank, n)  # before C(n, r), which is slow for a huge n
        if len(s) != _ncr(n, rank):
            raise ValueError(f"expected {_ncr(n, rank)} sign characters, got {len(s)}")
        from .signs import char_sign

        bases = itertools.combinations(range(n), rank)
        return cls(rank, n, {b: char_sign(c) for b, c in zip(bases, s)})

    def basis_masks(self) -> list[int]:
        """Bitmasks of the r-subsets in lexicographic order."""
        return [mask_of(b) for b in itertools.combinations(range(self.n), self.rank)]

    def chi(self, *elements: int) -> int:
        """Sign on an ordered tuple (alternating; 0 on repeats)."""
        if len(elements) != self.rank:
            raise ValueError("tuple length must equal rank")
        mask, parity = signed_mask(elements)
        return parity * self.signs[mask]

    def basis_sign(self, basis: Iterable[int]) -> int:
        return self.signs[mask_of(basis)]

    def to_string(self) -> str:
        from .signs import sign_char

        signs = self.signs
        return "".join(sign_char(signs[m]) for m in self.basis_masks())

    def is_uniform(self) -> bool:
        return sum(1 for s in self.signs if s) == _ncr(self.n, self.rank)

    def is_zero(self) -> bool:
        return not any(self.signs)

    def reorient(self, elements: Iterable[int]) -> "Chirotope":
        a = mask_of(elements)
        return Chirotope._dense(self.rank, self.n, [
            -s if (m & a).bit_count() & 1 else s
            for m, s in enumerate(self.signs)
        ])

    def with_basis_flipped(self, basis: Iterable[int]) -> "Chirotope":
        signs = list(self.signs)
        m = mask_of(basis)
        signs[m] = -signs[m]
        return Chirotope._dense(self.rank, self.n, signs)

    def is_mutation(self, basis_mask: int) -> bool:
        """Whether negating the sign of the basis gives a chirotope again,
        for a valid uniform chirotope (Roudneff & Sturmfels, "Simplicial
        cells in arrangements and mutations of oriented matroids", 1988).

        For p < q in B and s outside B, let w_s = chi(B-q+s) chi(B-p+s)
        on sorted subsets, negated when p < s < q.  Dropping B's own term
        from the three-term relation on {p, q, s, t} leaves
        chi(B-q+s) chi(B-p+t) and chi(B-q+t) chi(B-p+s), which have
        opposite signs in the relation iff w_s = w_t; so B is a mutation
        iff w_s is constant in s for every pair p < q.  That is
        C(r,2) * (n-r) sign reads.
        """
        signs = self.signs
        outside = [e for e in range(self.n) if not basis_mask >> e & 1]
        for p, q in itertools.combinations(bits(basis_mask), 2):
            without_p, without_q = basis_mask & ~(1 << p), basis_mask & ~(1 << q)
            first = 0
            for s in outside:
                w = signs[without_q | 1 << s] * signs[without_p | 1 << s]
                if p < s < q:
                    w = -w
                if not first:
                    first = w
                elif w != first:
                    return False
        return True

    def negate(self) -> "Chirotope":
        return Chirotope._dense(self.rank, self.n, [-s for s in self.signs])

    def dual(self) -> "Chirotope":
        """Dual map on (n-r)-subsets: chi*(E\\B) = sign(sorting (B, E\\B)) * chi(B)."""
        full = (1 << self.n) - 1
        signs = [0] * (1 << self.n)
        for m in self.basis_masks():
            comp = full & ~m
            _, parity = signed_mask(list(bits(m)) + list(bits(comp)))
            signs[comp] = parity * self.signs[m]
        return Chirotope._dense(self.n - self.rank, self.n, signs)

    def relabel(self, perm: Sequence[int]) -> "Chirotope":
        """Relabel so old element e becomes perm[e]."""
        signs = [0] * (1 << self.n)
        for m in self.basis_masks():
            img, parity = signed_mask([perm[e] for e in bits(m)])
            signs[img] = parity * self.signs[m]
        return Chirotope._dense(self.rank, self.n, signs)

    def validate(self) -> ValidationReport:
        return validate_chirotope(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chirotope)
            and self.rank == other.rank
            and self.n == other.n
            and self.signs == other.signs
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.n, tuple(self.signs)))

    def __repr__(self) -> str:
        return f"Chirotope(rank={self.rank}, n={self.n}, {self.to_string()!r})"


def _gp3_holds(signs: list, x: int, a: int, b: int, c: int, d: int) -> bool:
    """One three-term Grassmann-Pluecker sign relation.

    x is the mask of an (r-2)-subset and a < b < c < d are single-bit
    masks outside it.  With t1 = chi(abx)chi(cdx), t2 = chi(acx)chi(bdx),
    t3 = chi(adx)chi(bcx), the relation t1 - t2 + t3 = 0 must hold over
    signs: {t1, -t2, t3} is all zero or contains both a plus and a minus.
    Each term meets a, b, c and d once each, so the sorting signs of the
    ordered tuples give all three terms one common factor, which the
    relation ignores; the sorted-subset signs suffice.
    """
    t1 = signs[x | a | b] * signs[x | c | d]
    t2 = -signs[x | a | c] * signs[x | b | d]
    t3 = signs[x | a | d] * signs[x | b | c]
    return (t1 > 0 or t2 > 0 or t3 > 0) == (t1 < 0 or t2 < 0 or t3 < 0)


def _gp3_violation(x: int, four) -> tuple:
    return ("grassmann-pluecker-3", (tuple(bits(x)), tuple(four)))


def _basis_exchange_violations(chi: Chirotope) -> list:
    """Basis exchange on the support: for bases B1, B2 and x in B1 - B2,
    some y in B2 - B1 makes B1 - x + y a basis.  One violation, with the
    first such x, per ordered pair that fails.

    Let F be x and the y outside B1 with B1 - x + y a basis.  Then B2
    fails at x iff it avoids F.  On a matroid F is the complement of the
    hyperplane spanned by B1 - x, so there are few distinct F, and each
    is matched against the bases once (`avoiding`)."""
    n, signs = chi.n, chi.signs
    bases = [m for m in chi.basis_masks() if signs[m]]
    avoiding: dict[int, list[int]] = {}
    violations = []
    for b1 in bases:
        outside = [y for y in range(n) if not b1 >> y & 1]
        walls = []
        for x in bits(b1):
            f = 1 << x | mask_of(y for y in outside if signs[b1 ^ 1 << x | 1 << y])
            if f not in avoiding:
                avoiding[f] = [b2 for b2 in bases if not b2 & f]
            walls.append((x, f))
        failing = {b2 for _, f in walls for b2 in avoiding[f]}
        for b2 in bases if failing else ():
            if b2 in failing:
                x = next(x for x, f in walls if not b2 & f)
                violations.append(("basis-exchange", (tuple(bits(b1)), tuple(bits(b2)), x)))
    return violations


def validate_chirotope(chi: Chirotope) -> ValidationReport:
    """The chirotope axioms: a nonzero map whose support is the basis
    set of a matroid (basis exchange, checked when the map is not
    uniform), and the exhaustive three-term Grassmann-Pluecker sign check
    on every (r-2)-subset x and 4-subset {a,b,c,d} of the rest
    (`_gp3_holds`).  Those suffice on such a support (Bjoerner et al.,
    *Oriented Matroids*, Thm 3.6.2)."""
    if chi.is_zero():
        return ValidationReport(False, (("identically-zero", ()),))
    r, n = chi.rank, chi.n
    signs = chi.signs
    violations = [] if chi.is_uniform() else _basis_exchange_violations(chi)
    if r >= 2 and n - (r - 2) >= 4:
        for x in itertools.combinations(range(n), r - 2):
            xm = mask_of(x)
            rest = [e for e in range(n) if not xm >> e & 1]
            for four in itertools.combinations(rest, 4):
                a, b, c, d = (1 << e for e in four)
                if not _gp3_holds(signs, xm, a, b, c, d):
                    violations.append(_gp3_violation(xm, four))
    return ValidationReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# flats of a cocircuit set
# ---------------------------------------------------------------------------

class _Flats:
    """Closure and rank of element sets (bitmasks) from the hyperplanes
    (zero sets) of a cocircuit set; closures are memoised.  The closure
    of a set is the meet of the hyperplanes that contain it, or the
    ground set.  No oriented matroid is assumed, so the cocircuit checks
    can rank flats before they know that they have one."""

    def __init__(self, n: int, hyperplanes: Iterable[int]):
        self.full = (1 << n) - 1
        self.hyperplanes = tuple(hyperplanes)
        self._closure: dict[int, int] = {}

    def closure(self, mask: int) -> int:
        got = self._closure.get(mask)
        if got is None:
            got = self.full
            for h in self.hyperplanes:
                if mask & ~h == 0:
                    got &= h
            self._closure[mask] = got
        return got

    def rank(self, mask: int) -> int:
        if mask & ~self.full:
            raise ValueError("element outside the ground set")
        # each element outside the closure so far raises the rank
        rank, cl = 0, self.closure(0)
        rest = mask & ~cl
        while rest:
            rank += 1
            cl = self.closure(cl | rest & -rest)
            rest = mask & ~cl
        return rank


# ---------------------------------------------------------------------------
# oriented matroid
# ---------------------------------------------------------------------------

class OrientedMatroid:
    """The oriented matroid of a valid chirotope on the ground set 0..n-1.

    Immutable after construction.  chi and -chi give the same oriented
    matroid.  The cocircuits, the hyperplanes and the rank oracle are
    caches derived from the chirotope on first use.  `provenance` records
    how the instance arose ('from-points', 'from-chirotope', 'from-file',
    'derived').  The constructor trusts its caller that chi is valid:
    `cocircuits_from_chirotope` checks a chirotope first, and
    `om_from_cocircuits` a cocircuit set.
    """

    def __init__(
        self,
        chi: Chirotope,
        provenance: str = "derived",
        labels: Optional[Sequence[str]] = None,
    ):
        self.chirotope = chi
        self.n = chi.n
        self.rank = chi.rank
        self.provenance = provenance
        self.labels = tuple(labels) if labels is not None else None
        self._cocircuits: Optional[frozenset[SignVector]] = None
        self._flats: Optional[_Flats] = None
        self._by_zero: Optional[dict[int, SignVector]] = None
        self._uniform: Optional[bool] = None
        self._sorted: Optional[tuple[SignVector, ...]] = None
        self._graph_cache: dict[int, tuple] = {}
        self._non_euclidean = None  # programs: frozenset of (g, f), decided once
        self._flipped_from = None  # flip_basis: (basis mask, parent) until decided
        self._tope_cache = None
        self._mutation_cache = None
        self._mutation_bases = None
        self._key_search = None  # canonical.KeySearch, filled on first use

    # -- derived structure ----------------------------------------------

    @property
    def cocircuits(self) -> frozenset[SignVector]:
        if self._cocircuits is None:
            self._cocircuits = _derive_cocircuits(self.chirotope)
        return self._cocircuits

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def sorted_cocircuits(self) -> tuple[SignVector, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.cocircuits, key=SignVector.sort_key))
        return self._sorted

    def _flat_ranks(self) -> _Flats:
        if self._flats is None:
            self._flats = _Flats(self.n, {x.zero_mask for x in self.cocircuits})
        return self._flats

    def cocircuit_with_zero(self, zero_mask: int) -> Optional[SignVector]:
        """One cocircuit of the +- pair with the given zero set."""
        if self._by_zero is None:
            table: dict[int, SignVector] = {}
            for x in self.sorted_cocircuits():
                table.setdefault(x.zero_mask, x)
            self._by_zero = table
        return self._by_zero.get(zero_mask)

    def closure_mask(self, mask: int) -> int:
        return self._flat_ranks().closure(mask)

    def subset_rank(self, elements) -> int:
        """Matroid rank of a subset (iterable of elements or a bitmask)."""
        mask = elements if isinstance(elements, int) else mask_of(elements)
        return self._flat_ranks().rank(mask)

    def _uniform_chirotope(self) -> bool:
        """Uniform and of rank >= 1: then no element is a loop, every
        element is a coloop iff r = n, and the mutation sign test applies
        to every basis.  A rank-0 chirotope is uniform too, but every
        element is a loop, and its empty basis is no mutation.  The
        cocircuit routes below are the oracle."""
        return self.rank >= 1 and self.is_uniform()

    def loops(self) -> frozenset[int]:
        if self._uniform_chirotope():
            return frozenset()
        return frozenset(bits(self.closure_mask(0)))

    def coloops(self) -> frozenset[int]:
        if self._uniform_chirotope():
            return frozenset(range(self.n)) if self.rank == self.n else frozenset()
        full = self.full_mask
        return frozenset(
            e
            for e in range(self.n)
            if self.subset_rank(full & ~(1 << e)) == self.rank - 1
        )

    def is_uniform(self) -> bool:
        """All r-subsets are bases."""
        if self._uniform is None:
            self._uniform = self.chirotope.is_uniform()
        return self._uniform

    # -- structural operations -------------------------------------------

    def reorient(self, elements: Iterable[int]) -> "OrientedMatroid":
        return OrientedMatroid(self.chirotope.reorient(elements), labels=self.labels)

    def dual(self) -> "OrientedMatroid":
        return OrientedMatroid(self.chirotope.dual(), labels=self.labels)

    def delete(self, elements: Iterable[int]) -> "OrientedMatroid":
        return self.minor(delete=elements)

    def contract(self, elements: Iterable[int]) -> "OrientedMatroid":
        return self.minor(contract=elements)

    def minor(self, delete: Iterable[int] = (), contract: Iterable[int] = ()) -> "OrientedMatroid":
        """Delete some elements and contract others, by one formula:
        chi'(B) = chi(B, F) on the r'-subsets B of the kept elements K.

        F = I u J is fixed.  I is a basis of the contracted set C, and J,
        drawn from the deleted set, completes K u I to rank r.  The
        elements of J are coloops of the restriction to K u C u J, so
        deleting them is the same as contracting them, and the minor is
        that restriction contracted by I u J.  A basis whose meets with C
        and with C u K are as large as can be holds such an I and J.
        """
        dset, cset = set(delete), set(contract)
        if dset & cset:
            raise ValueError("delete and contract sets overlap")
        keep = [e for e in range(self.n) if e not in dset and e not in cset]
        if not keep:
            raise ValueError("minor would have empty ground set")
        if self.labels is not None:
            labels = [self.labels[e] for e in keep]
        else:
            labels = [str(e) for e in keep]
        signs = self.chirotope.signs
        cmask, kmask = mask_of(cset), mask_of(keep)
        fixed, best = 0, (-1, -1)
        for m, s in enumerate(signs):
            if s:
                score = ((m & cmask).bit_count(), (m & (cmask | kmask)).bit_count())
                if score > best:
                    fixed, best = m & ~kmask, score
        new_rank = best[1] - best[0]
        if new_rank == 0:
            raise ValueError("minor would have rank 0")
        # sorting (B, F) moves each element of B over the elements of F below it
        below = [(fixed & ((1 << e) - 1)).bit_count() for e in keep]
        out = [0] * (1 << len(keep))
        for b in itertools.combinations(range(len(keep)), new_rank):
            m, moves = fixed, 0
            for i in b:
                m |= 1 << keep[i]
                moves += below[i]
            out[mask_of(b)] = -signs[m] if moves & 1 else signs[m]
        return OrientedMatroid(Chirotope._dense(new_rank, len(keep), out), labels=labels)

    def direct_sum(self, other: "OrientedMatroid") -> "OrientedMatroid":
        """chi(B1 u B2') = chi1(B1) chi2(B2), where B2' is B2 shifted past
        this ground set, so B1 then B2' is sorted."""
        n, rank = self.n + other.n, self.rank + other.rank
        _check_dense(n)
        signs = [0] * (1 << n)
        for m2, s2 in enumerate(other.chirotope.signs):
            if s2:
                for m1, s1 in enumerate(self.chirotope.signs):
                    if s1:
                        signs[m1 | m2 << self.n] = s1 * s2
        labels = None
        if self.labels is not None or other.labels is not None:
            left = self.labels or tuple(str(e) for e in range(self.n))
            right = other.labels or tuple(str(e) for e in range(other.n))
            labels = list(left) + [f"{lab}'" for lab in right]
        return OrientedMatroid(Chirotope._dense(rank, n, signs), labels=labels)

    # -- elementwise queries ----------------------------------------------

    def is_general_position(self, e: int) -> bool:
        """True iff e lies in no hyperplane spanned by the other elements."""
        if not 0 <= e < self.n:
            raise ValueError(f"element {e} out of range")
        if self._uniform_chirotope():
            return True  # any r-1 others and e form a basis
        ebit = 1 << e
        for x in self.cocircuits:
            zm = x.zero_mask
            if zm & ebit and self.subset_rank(zm & ~ebit) == self.rank - 1:
                return False
        return True

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal chirotopes up to the global sign, which is the same as
        equal cocircuit sets."""
        if not (
            isinstance(other, OrientedMatroid)
            and self.n == other.n
            and self.rank == other.rank
        ):
            return False
        mine, theirs = self.chirotope.signs, other.chirotope.signs
        return mine == theirs or mine == [-s for s in theirs]

    def __hash__(self) -> int:
        """The hash of the chirotope negated, if need be, to make its
        first nonzero sign +."""
        signs = self.chirotope.signs
        if next(s for s in signs if s) < 0:
            signs = [-s for s in signs]
        return hash((self.n, self.rank, tuple(signs)))

    def __repr__(self) -> str:
        return (
            f"OrientedMatroid(n={self.n}, rank={self.rank}, "
            f"|C*|={len(self.cocircuits)}, {self.provenance})"
        )


def pair_kind(om: OrientedMatroid, f: int, g: int) -> Optional[str]:
    """'covariant', 'contravariant', or None if the pair is separable.

    Naming follows circuit signatures: a contravariant pair has equal
    cocircuit signs wherever both are nonzero (opposed circuit signs),
    a covariant pair has opposed cocircuit signs.  Pairs never supported
    together are vacuously inseparable, reported contravariant.
    """
    same = opposite = False
    for x in om.cocircuits:
        sf, sg = x[f], x[g]
        if sf and sg:
            if sf == sg:
                same = True
            else:
                opposite = True
        if same and opposite:
            return None
    return "covariant" if opposite else "contravariant"


def _ncr(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def cocircuits_from_chirotope(chi: Chirotope, provenance: str = "from-chirotope") -> OrientedMatroid:
    """The oriented matroid of a chirotope, after the Grassmann-Pluecker
    check; its cocircuits are derived on first use (`_derive_cocircuits`)."""
    report = validate_chirotope(chi)
    if not report.ok:
        raise InvalidChirotope(report.violations)
    om = OrientedMatroid(chi, provenance=provenance)
    if not chi.is_uniform():
        # derive now: a non-uniform chirotope can still give one
        # hyperplane inconsistent signs, which raises here
        om._cocircuits = _derive_cocircuits(chi)
    return om


def _derive_cocircuits(chi: Chirotope) -> frozenset[SignVector]:
    """Cocircuits via basic-cocircuit signs: C_e = chi(e, A) for each
    spanning (r-1)-subset A (sorted), zero on the closure of A.  Rank 0
    has none."""
    r, n, signs = chi.rank, chi.n, chi.signs
    if r == 0:
        return frozenset()
    by_zero: dict[int, SignVector] = {}
    for a in itertools.combinations(range(n), r - 1):
        am = mask_of(a)
        # chi(e, A) is the sorted subset's sign, negated when an odd
        # number of A's elements precede e; 0 for e in A
        vec = SignVector.from_signs([
            -signs[am | 1 << e] if (am & ((1 << e) - 1)).bit_count() & 1
            else signs[am | 1 << e]
            for e in range(n)
        ])
        if vec.is_zero():
            continue  # A does not span a hyperplane
        prev = by_zero.get(vec.zero_mask)
        if prev is None:
            by_zero[vec.zero_mask] = vec
        elif prev != vec and prev != -vec:
            raise ValueError("inconsistent cocircuit signs for one hyperplane")
    cocircuits = set()
    for vec in by_zero.values():
        cocircuits.add(vec)
        cocircuits.add(-vec)
    return frozenset(cocircuits)


def cocircuits_from_points(points: Sequence[Sequence]) -> set[SignVector]:
    """Point-side cocircuits, independent of the chirotope route: for
    each spanning (r-1)-subset A, the signs of det(rows A, row e)."""
    n = len(points)
    r = len(points[0])
    out: set[SignVector] = set()
    seen_zero = set()
    for a in itertools.combinations(range(n), r - 1):
        base = [points[i] for i in a]
        if matrix_rank(base) < r - 1:
            continue
        signs = [det_sign(base + [points[e]]) for e in range(n)]
        vec = SignVector.from_signs(signs)
        if vec.is_zero() or vec.zero_mask in seen_zero:
            continue
        seen_zero.add(vec.zero_mask)
        out.add(vec)
        out.add(-vec)
    return out


def om_from_points(points: Sequence[Sequence]) -> OrientedMatroid:
    chi = Chirotope.from_points(points)
    om = cocircuits_from_chirotope(chi, provenance="from-points")
    return om


def chirotope_from_cocircuits(n: int, cocircuits: Iterable[SignVector]) -> Chirotope:
    """Recover a chirotope (one of the +- pair) from a cocircuit set on
    n elements, uniform or not.

    chi is seeded + on the first basis found greedily in element order
    and propagated through basis exchanges.  For b in a basis B, the
    cocircuit C that vanishes on the closure of B - b has
    chi(e, B-b) * chi(b, B-b) = C[e] * C[b] for every e with C[e] != 0,
    independently of the pair's sign choice.  The set is not assumed to
    be an oriented matroid, so the caller checks the result
    (`om_from_cocircuits`); a missing cocircuit, or one that vanishes at
    b, raises ValueError.
    """
    by_zero: dict[int, SignVector] = {}
    for x in cocircuits:
        by_zero.setdefault(x.zero_mask, x)
    flats = _Flats(n, by_zero)
    first, cl = 0, flats.closure(0)
    for e in range(n):
        if not cl >> e & 1:
            first |= 1 << e
            cl = flats.closure(cl | 1 << e)
    signs = [0] * (1 << n)
    signs[first] = PLUS
    frontier = [first]
    while frontier:
        basis = frontier.pop()
        for b in bits(basis):
            rest = basis & ~(1 << b)
            coc = by_zero.get(flats.closure(rest))
            if coc is None or not coc[b]:
                raise ValueError(f"no cocircuit separates {b} from {list(bits(rest))}")
            # chi(e, rest) is the sorted sign, negated when an odd number
            # of rest's elements precede e
            chi_b_at = coc[b] * signs[basis]
            if (rest & ((1 << b) - 1)).bit_count() & 1:
                chi_b_at = -chi_b_at
            for e in bits(coc.support_mask & ~basis):
                new_basis = rest | 1 << e
                if not signs[new_basis]:
                    s = coc[e] * chi_b_at
                    odd = (rest & ((1 << e) - 1)).bit_count() & 1
                    signs[new_basis] = -s if odd else s
                    frontier.append(new_basis)
    return Chirotope._dense(first.bit_count(), n, signs)


def om_from_cocircuits(
    n: int,
    rank: int,
    cocircuits: Iterable[SignVector],
    provenance: str = "derived",
    labels: Optional[Sequence[str]] = None,
) -> OrientedMatroid:
    """The oriented matroid of a cocircuit set: the one door for
    cocircuit input.  A wrong length, a set not closed under negation, a
    zero vector, a rank other than the declared one or more than
    MAX_ELEMENTS elements raises ValueError.  The set is accepted iff
    its recovered chirotope is valid and derives exactly the set, as an
    oriented matroid's own chirotope does; any other set raises
    `InvalidCocircuits`, naming the first violation of the cocircuit
    axioms in the order given."""
    vecs = list(cocircuits)
    vset = frozenset(vecs)
    for x in vset:
        if x.n != n:
            raise ValueError("cocircuit length != ground set size")
        if -x not in vset:
            raise ValueError("cocircuit set not closed under negation")
        if x.is_zero():
            raise ValueError("zero vector among cocircuits")
    flats = _Flats(n, {x.zero_mask for x in vset})
    actual = flats.rank(flats.full)
    if actual != rank:
        raise ValueError(f"declared rank {rank}, but the cocircuits have rank {actual}")
    _check_dense(n)  # before the dense recovery
    try:
        chi = chirotope_from_cocircuits(n, vset)
        if validate_chirotope(chi).ok and _derive_cocircuits(chi) == vset:
            om = OrientedMatroid(chi, provenance, labels)
            om._cocircuits = vset  # derived just now
            return om
    except ValueError:
        pass
    report = validate_cocircuit_axioms(vecs, n=n, rank=rank)
    raise InvalidCocircuits(report.violations)


def validate_cocircuit_axioms(
    vectors: Iterable[SignVector], n: Optional[int] = None, rank: Optional[int] = None
) -> ValidationReport:
    """Exhaustive signed-cocircuit axiom check.

    (C0) no zero vector, (C1) closure under negation, (C2) incomparable
    supports, (C3) elimination: for X != -Y and e separating them there
    is Z with Z_e = 0, Z+ within X+ u Y+ less e, Z- within X- u Y- less e.
    When `rank` is given, also checks that every zero set is a flat of
    rank exactly rank-1 and the ground set has the stated rank.  The
    empty set passes with rank 0 only: it is the rank-0 oriented matroid.
    """
    vecs = list(set(vectors))
    violations = []
    if not vecs:
        if rank == 0:
            return ValidationReport(True)
        violations.append(("C0", ("empty set",)))
        return ValidationReport(False, tuple(violations))
    if n is None:
        n = vecs[0].n
    vset = set(vecs)
    for x in vecs:
        if x.is_zero():
            violations.append(("C0", (x,)))
        if -x not in vset:
            violations.append(("C1", (x,)))
    if violations:
        return ValidationReport(False, tuple(violations))
    for x, y in itertools.combinations(vecs, 2):
        if x.support_mask == y.support_mask:
            if y != -x:
                violations.append(("C2", (x, y)))
        elif x.support_mask & ~y.support_mask == 0:
            violations.append(("C2", (x, y)))
        elif y.support_mask & ~x.support_mask == 0:
            violations.append(("C2", (y, x)))
    # the candidates Z for an elimination at e, in the order of vecs
    zero_at = [[z for z in vecs if not z.support_mask >> e & 1] for e in range(n)]
    for x in vecs:
        for y in vecs:
            if x is y or y == -x:
                continue
            sep = x.sep_mask(y)
            allowed_p = (x.pm | y.pm)
            allowed_m = (x.mm | y.mm)
            rest = sep
            while rest:
                ebit = rest & -rest
                rest ^= ebit
                ok = False
                for z in zero_at[ebit.bit_length() - 1]:
                    if (
                        z.pm & ~(allowed_p & ~ebit) == 0
                        and z.mm & ~(allowed_m & ~ebit) == 0
                    ):
                        ok = True
                        break
                if not ok:
                    e = ebit.bit_length() - 1
                    violations.append(("C3", (x, y, e)))
    if rank is not None and not violations:
        flats = _Flats(n, {x.zero_mask for x in vecs})
        if flats.rank(flats.full) != rank:
            violations.append(("rank", ("ground set rank mismatch",)))
        for x in vecs:
            if flats.rank(x.zero_mask) != rank - 1:
                violations.append(("rank", (x,)))
    return ValidationReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# realizable extension through chosen flats
# ---------------------------------------------------------------------------

def realizable_extend_through(
    points: Sequence[Sequence],
    targets: Sequence[Iterable[int]],
    rng,
    max_tries: int = 4000,
) -> list[list[Fraction]]:
    """Append one rational vector lying on the hyperplanes spanned by the
    given zero sets and otherwise generic: a determinant with the new
    vector vanishes only when the target constraints force it on the
    whole solution space.  Genericity by seeded rejection sampling.
    """
    pts = [[Fraction(x) for x in row] for row in points]
    n = len(pts)
    r = len(pts[0])
    if len(targets) > r - 1:
        raise ValueError("at most rank-1 target hyperplanes")
    target_sets = [sorted(set(t)) for t in targets]
    normals = []
    for t in target_sets:
        rows = [pts[i] for i in t]
        if matrix_rank(rows) != r - 1:
            raise ValueError(f"target {t} does not span a hyperplane")
        normals.extend(_nullspace(rows, r))
    basis = _nullspace(normals, r) if normals else [
        [Fraction(int(i == j)) for j in range(r)] for i in range(r)
    ]
    if not basis:
        raise ValueError("targets force the zero vector")
    spanning = []
    forced_zero = set()
    for a in itertools.combinations(range(n), r - 1):
        rows = [pts[i] for i in a]
        if matrix_rank(rows) < r - 1:
            continue
        spanning.append(a)
        if all(det_sign(rows + [list(b)]) == 0 for b in basis):
            forced_zero.add(a)
    for _ in range(max_tries):
        coeffs = [Fraction(rng.randint(-40, 40)) for _ in basis]
        v = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(r)]
        if all(x == 0 for x in v):
            continue
        good = True
        for a in spanning:
            d = det_sign([pts[i] for i in a] + [v])
            if (d == 0) != (a in forced_zero):
                good = False
                break
        if good:
            return pts + [v]
    raise RuntimeError("no generic extension found within retry budget")


def _nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Basis of the solutions v of rows . v = 0: one vector per free
    column c, with v[c] = 1 and v = 0 on the other free columns."""
    m, pivots, _ = _echelon(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        # back-substitute over the integers, scaling v by each pivot
        v = [0] * ncols
        v[fc] = 1
        for k in reversed(range(len(pivots))):
            pc = pivots[k]
            s = sum(m[k][j] * v[j] for j in range(pc + 1, ncols))
            v = [x * m[k][pc] for x in v]
            v[pc] = -s
        basis.append([Fraction(x, v[fc]) for x in v])
    return basis
