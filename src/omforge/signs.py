"""Sign arithmetic and sign vectors over a ground set 0..n-1.

Signs are plain ints -1, 0, +1.  A SignVector stores the positive and
negative positions as two bitmasks, so composition, separation and
conformality are O(1) word operations.  Every covector computation in
the package sits on top of these primitives.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

PLUS = 1
ZERO = 0
MINUS = -1

_CHAR_OF = {PLUS: "+", ZERO: "0", MINUS: "-"}
_SIGN_OF = {"+": PLUS, "0": ZERO, "-": MINUS}


def sign_char(s: int) -> str:
    """Serialize a sign as '+', '0' or '-'."""
    return _CHAR_OF[s]


def char_sign(c: str) -> int:
    """Parse a '+', '0' or '-' character."""
    try:
        return _SIGN_OF[c]
    except KeyError:
        raise ValueError(f"not a sign character: {c!r}") from None


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SignVector:
    """Immutable {+,0,-} assignment to the ground set 0..n-1."""

    __slots__ = ("n", "pm", "mm")

    def __init__(self, n: int, pm: int, mm: int):
        if pm & mm:
            raise ValueError("overlapping plus and minus supports")
        if (pm | mm) >> n:
            raise ValueError("support outside ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pm", pm)
        object.__setattr__(self, "mm", mm)

    def __setattr__(self, *a):
        raise AttributeError("SignVector is immutable")

    @classmethod
    def from_signs(cls, signs: Sequence[int]) -> "SignVector":
        pm = mm = 0
        for i, s in enumerate(signs):
            if s > 0:
                pm |= 1 << i
            elif s < 0:
                mm |= 1 << i
        return cls(len(signs), pm, mm)

    @classmethod
    def from_string(cls, s: str) -> "SignVector":
        return cls.from_signs([char_sign(c) for c in s])

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    # -- basic access ---------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        b = 1 << i
        if self.pm & b:
            return PLUS
        if self.mm & b:
            return MINUS
        return ZERO

    def __iter__(self) -> Iterator[int]:
        for i in range(self.n):
            yield self[i]

    def signs(self) -> tuple[int, ...]:
        return tuple(self)

    def to_string(self) -> str:
        return "".join(_CHAR_OF[s] for s in self)

    @property
    def support_mask(self) -> int:
        return self.pm | self.mm

    @property
    def zero_mask(self) -> int:
        return ((1 << self.n) - 1) & ~(self.pm | self.mm)

    def support(self) -> frozenset[int]:
        return frozenset(bits(self.support_mask))

    def zero_set(self) -> frozenset[int]:
        return frozenset(bits(self.zero_mask))

    def is_zero(self) -> bool:
        return not (self.pm | self.mm)

    # -- algebra --------------------------------------------------------

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.mm, self.pm)

    def compose(self, other: "SignVector") -> "SignVector":
        """X o Y: take X's sign where nonzero, else Y's."""
        self._check(other)
        z = self.zero_mask
        return SignVector(self.n, self.pm | (other.pm & z), self.mm | (other.mm & z))

    def sep_mask(self, other: "SignVector") -> int:
        self._check(other)
        return (self.pm & other.mm) | (self.mm & other.pm)

    def separation(self, other: "SignVector") -> frozenset[int]:
        """Elements where the two vectors take opposite nonzero signs."""
        return frozenset(bits(self.sep_mask(other)))

    def conformal(self, other: "SignVector") -> bool:
        return self.sep_mask(other) == 0

    def leq(self, other: "SignVector") -> bool:
        """Conformality order: self_e in {0, other_e} for every e."""
        self._check(other)
        return (self.pm & ~other.pm) == 0 and (self.mm & ~other.mm) == 0

    # -- reshaping ------------------------------------------------------

    def restrict(self, keep: Sequence[int]) -> "SignVector":
        """Reindex onto the given elements, in the given order."""
        return SignVector.from_signs([self[e] for e in keep])

    def append(self, s: int) -> "SignVector":
        pm, mm = self.pm, self.mm
        if s > 0:
            pm |= 1 << self.n
        elif s < 0:
            mm |= 1 << self.n
        return SignVector(self.n + 1, pm, mm)

    def insert(self, pos: int, s: int) -> "SignVector":
        """New vector with a coordinate spliced in at the given position."""
        low = (1 << pos) - 1
        pm = (self.pm & low) | ((self.pm & ~low) << 1)
        mm = (self.mm & low) | ((self.mm & ~low) << 1)
        if s > 0:
            pm |= 1 << pos
        elif s < 0:
            mm |= 1 << pos
        return SignVector(self.n + 1, pm, mm)

    def with_sign(self, e: int, s: int) -> "SignVector":
        b = 1 << e
        pm, mm = self.pm & ~b, self.mm & ~b
        if s > 0:
            pm |= b
        elif s < 0:
            mm |= b
        return SignVector(self.n, pm, mm)

    def swap(self, i: int, j: int) -> "SignVector":
        """Exchange coordinates i and j."""
        si, sj = self[i], self[j]
        return self.with_sign(i, sj).with_sign(j, si)

    def reorient(self, mask: int) -> "SignVector":
        """Negate the coordinates in the given element mask."""
        pm = (self.pm & ~mask) | (self.mm & mask)
        mm = (self.mm & ~mask) | (self.pm & mask)
        return SignVector(self.n, pm, mm)

    # -- plumbing -------------------------------------------------------

    def _check(self, other: "SignVector") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")

    def sort_key(self) -> tuple[int, int]:
        return (self.pm, self.mm)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignVector)
            and self.n == other.n
            and self.pm == other.pm
            and self.mm == other.mm
        )

    def __hash__(self) -> int:
        return hash((self.n, self.pm, self.mm))

    def __repr__(self) -> str:
        return f"SignVector({self.to_string()!r})"

