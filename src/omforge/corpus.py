"""Named instances and seeded random realizable configurations.

All randomness flows from a caller-supplied random.Random so runs are
reproducible from one 64-bit seed.
"""

from __future__ import annotations

import random

from .core import Chirotope, OrientedMatroid, cocircuits_from_chirotope, om_from_points


def w3() -> OrientedMatroid:
    """Three collinear points: rank 2, all-plus chirotope, 6 cocircuits."""
    return om_from_points([[1, 1], [1, 2], [1, 3]])


# found by flip search from cyclic_om(4, 8): 8 of its 56 programs carry
# directed cycles, and it sits one flip from a Euclidean class
NON_EUCLIDEAN_848_CHI = (
    "---+++++++++++-+++++++++++++++++++++++++++++++++++++++++++++++++-+++--"
)


def non_euclidean_848() -> OrientedMatroid:
    """A non-Euclidean uniform rank-4 oriented matroid on 8 elements."""
    return cocircuits_from_chirotope(
        Chirotope.from_string(4, 8, NON_EUCLIDEAN_848_CHI)
    )


def cyclic_points(r: int, n: int) -> list[list[int]]:
    """Moment-curve configuration: rows (1, t, ..., t^(r-1)), t = 1..n."""
    return [[t**k for k in range(r)] for t in range(1, n + 1)]


def cyclic_om(r: int, n: int) -> OrientedMatroid:
    return om_from_points(cyclic_points(r, n))


def random_points(
    rng: random.Random, r: int, n: int, span: int = 9, uniform: bool = True,
    max_tries: int = 500,
) -> list[list[int]]:
    """Random integer configuration of full rank; by default retried
    until generic (uniform chirotope)."""
    for _ in range(max_tries):
        pts = [[rng.randint(-span, span) for _ in range(r)] for _ in range(n)]
        try:
            chi = Chirotope.from_points(pts)
        except ValueError:
            continue
        if not uniform or chi.is_uniform():
            return pts
    raise RuntimeError("no suitable random configuration within retry budget")

