"""Reference computations written apart from omforge's own routines.

The benchmark checks the library's outputs against these after the timed
region.  Nothing here imports omforge: chirotopes are plain sign strings
in lexicographic r-subset order (the `.chi` layout) and sign vectors are
strings over {+, -, 0}.
"""

from __future__ import annotations

import itertools
import math
import random

SIGN = {"+": 1, "-": -1, "0": 0}
CHAR = {1: "+", -1: "-", 0: "0"}


def bareiss_det(rows) -> int:
    """Exact determinant of a square integer matrix, fraction-free."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def parity(seq) -> int:
    """Sign of the permutation sorting seq (seq has distinct entries)."""
    s = 1
    for i, j in itertools.combinations(range(len(seq)), 2):
        if seq[i] > seq[j]:
            s = -s
    return s


def chirotope_of_points(points) -> str:
    """Chirotope string of an integer vector configuration (rows)."""
    r = len(points[0])
    return "".join(
        CHAR[sign(bareiss_det([points[i] for i in b]))]
        for b in itertools.combinations(range(len(points)), r)
    )


def generic_points(rng: random.Random, r: int, n: int, span: int = 9):
    """Seeded integer configuration whose every r-subset is a basis,
    returned with its chirotope string."""
    while True:
        pts = [[rng.randint(-span, span) for _ in range(r)] for _ in range(n)]
        chi = chirotope_of_points(pts)
        if "0" not in chi:
            return pts, chi


class SignTable:
    """Alternating sign map read from a chirotope string."""

    def __init__(self, r: int, n: int, text: str):
        bases = list(itertools.combinations(range(n), r))
        if len(text) != len(bases) or set(text) - set(SIGN):
            raise ValueError("malformed chirotope string")
        self.r, self.n = r, n
        self.values = {b: SIGN[c] for b, c in zip(bases, text)}

    def chi(self, seq) -> int:
        if len(set(seq)) < len(seq):
            return 0
        return parity(seq) * self.values[tuple(sorted(seq))]

    def cocircuit(self, hyperplane) -> str:
        """Basic cocircuit C_A(e) = chi(e, A) of an (r-1)-set A."""
        a = tuple(sorted(hyperplane))
        return "".join(CHAR[self.chi((e,) + a)] for e in range(self.n))


def grassmann_pluecker_ok(r: int, n: int, text: str) -> bool:
    """Every three-term Grassmann-Pluecker relation holds over signs."""
    table = SignTable(r, n, text)
    chi = table.chi
    for x in itertools.combinations(range(n), r - 2):
        rest = [e for e in range(n) if e not in x]
        for a, b, c, d in itertools.combinations(rest, 4):
            terms = (
                chi((a, b) + x) * chi((c, d) + x),
                -chi((a, c) + x) * chi((b, d) + x),
                chi((a, d) + x) * chi((b, c) + x),
            )
            if (max(terms) > 0) != (min(terms) < 0):
                return False
    return True


def transform(r: int, n: int, text: str, perm, flipped) -> str:
    """Chirotope string after relabelling old e as perm[e] and
    reorienting the old elements in `flipped`."""
    table = SignTable(r, n, text)
    out = {}
    for b, s in table.values.items():
        img = tuple(perm[e] for e in b)
        neg = sum(1 for e in b if e in flipped) % 2
        out[tuple(sorted(img))] = parity(img) * s * (-1 if neg else 1)
    return "".join(CHAR[out[b]] for b in itertools.combinations(range(n), r))


def random_relabelling(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    flipped = frozenset(e for e in range(n) if rng.random() < 0.5)
    return perm, flipped


def uniform_tope_count(r: int, n: int) -> int:
    """Regions of a generic central arrangement of n hyperplanes in R^r."""
    return 2 * sum(math.comb(n - 1, i) for i in range(r))


def _vector(text: str):
    return [SIGN[c] for c in text]


def witness_ok(table: SignTable, g: int, f: int, vertices, directions) -> bool:
    """Re-derive every edge of a directed-cycle witness from chirotope
    signs.  vertices and directions are sign strings; edge t runs from
    vertex t to vertex t+1 and carries the elimination of (-X, Y) at g."""
    r, n = table.r, table.n
    k = len(vertices)
    if k < 3 or len(directions) != k:
        return False
    verts = [_vector(v) for v in vertices]
    for x in verts:
        zero = [e for e in range(n) if x[e] == 0]
        if x[g] != 1 or len(zero) != r - 1:
            return False
        c = _vector(table.cocircuit(zero))
        if x != c and x != [-s for s in c]:
            return False
    for t in range(k):
        x, y = verts[t], verts[(t + 1) % k]
        if any(x[e] * y[e] < 0 for e in range(n)):
            return False  # not conformal: no edge
        common = [e for e in range(n) if x[e] == 0 and y[e] == 0]
        if len(common) != r - 2:
            return False  # not comodular: no edge
        z = _vector(table.cocircuit(common + [g]))
        comp = [-x[e] if x[e] else y[e] for e in range(n)]
        off_sep = [e for e in range(n) if -x[e] * y[e] >= 0]
        fits = [
            all(s * z[e] * comp[e] >= 0 for e in off_sep) for s in (1, -1)
        ]
        if fits[0] == fits[1]:
            return False  # elimination sign not determined
        z = z if fits[0] else [-s for s in z]
        if z != _vector(directions[t]) or z[f] != 1:
            return False
    return True
