"""File formats.

.chi  line 1 "r n"; line 2 C(n,r) sign characters over {+,-,0} in
      lexicographic r-subset order.  Bit-exact round trip.
.pts  line 1 "r n"; then n lines of r integers (homogeneous vectors).
.ccj  JSON {"n", "rank", "labels"?, "cocircuits": [sign strings]},
      negation-closed; `read_ccj` checks that the set is an oriented
      matroid and recovers its chirotope (`core.om_from_cocircuits`).
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import (
    Chirotope,
    InvalidCocircuits,
    OrientedMatroid,
    cocircuits_from_chirotope,
    om_from_cocircuits,
    om_from_points,
)
from .signs import SignVector


def read_chi(path) -> Chirotope:
    tokens = Path(path).read_text().split()
    if len(tokens) != 3:
        raise ValueError(
            f"{path}: expected a header 'r n' and one sign string, "
            f"found {len(tokens)} tokens"
        )
    try:
        r, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"{path}: header must be two integers 'r n'") from None
    return Chirotope.from_string(r, n, tokens[2])


def write_chi(path, chi: Chirotope) -> None:
    Path(path).write_text(f"{chi.rank} {chi.n}\n{chi.to_string()}\n")


def read_pts(path) -> list[list[int]]:
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: expected a header 'r n'")
    try:
        r, n = int(tokens[0]), int(tokens[1])
        vals = [int(t) for t in tokens[2:]]
    except ValueError:
        raise ValueError(f"{path}: header and coordinates must be integers") from None
    if len(vals) != n * r:
        raise ValueError(f"expected {n * r} coordinates, found {len(vals)}")
    return [vals[i * r : (i + 1) * r] for i in range(n)]


def write_pts(path, points) -> None:
    r = len(points[0])
    lines = [f"{r} {len(points)}"]
    lines.extend(" ".join(str(x) for x in row) for row in points)
    Path(path).write_text("\n".join(lines) + "\n")


def read_ccj(path) -> OrientedMatroid:
    """A .ccj file's oriented matroid, through `om_from_cocircuits`:
    the chirotope recovered from a set that is an oriented matroid, and
    for any other set `InvalidCocircuits`, naming the first violation of
    the cocircuit axioms in the file's order."""
    n, rank, cocircuits, labels = read_ccj_fields(path)
    try:
        return om_from_cocircuits(
            n, rank, cocircuits, provenance="from-file", labels=labels
        )
    except InvalidCocircuits as exc:
        raise InvalidCocircuits(exc.violations, f"{path}: invalid cocircuit set") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_ccj_fields(path) -> tuple:
    """A .ccj file's (n, rank, cocircuits, labels), parsed but not
    axiom-checked: `omforge validate` reports a set that is not closed
    under negation, or that misses the declared rank, as a violation."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [k for k in ("n", "rank", "cocircuits") if k not in data]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    try:
        n, rank = int(data["n"]), int(data["rank"])
        cocircuits = [SignVector.from_string(s) for s in data["cocircuits"]]
    except (TypeError, ValueError):
        raise ValueError(
            f"{path}: 'n' and 'rank' must be integers and 'cocircuits' "
            f"a list of sign strings"
        ) from None
    if any(x.n != n for x in cocircuits):
        raise ValueError(f"{path}: every cocircuit must have n = {n} signs")
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list)
        and len(labels) == n
        and all(isinstance(x, str) for x in labels)
    ):
        raise ValueError(f"{path}: 'labels' must be a list of {n} strings")
    return n, rank, cocircuits, labels


def write_ccj(path, om: OrientedMatroid) -> None:
    data = {
        "n": om.n,
        "rank": om.rank,
        "cocircuits": sorted(x.to_string() for x in om.cocircuits),
    }
    if om.labels is not None:
        data["labels"] = list(om.labels)
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def load_om(path) -> OrientedMatroid:
    """Load an oriented matroid from .chi, .pts or .ccj by extension."""
    suffix = Path(path).suffix
    if suffix == ".chi":
        chi = read_chi(path)
        om = cocircuits_from_chirotope(chi, provenance="from-file")
        return om
    if suffix == ".pts":
        return om_from_points(read_pts(path))
    if suffix == ".ccj":
        return read_ccj(path)
    raise ValueError(f"unknown oriented-matroid file extension: {suffix}")
