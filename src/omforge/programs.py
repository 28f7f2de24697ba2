"""Oriented-matroid programs and their directed cocircuit graphs.

A program (om, g, f) has vertices the cocircuits with g = +, edges the
conformal comodular pairs, and each edge carries the elimination at g;
its f-sign directs the edge.  A program is Euclidean iff the strictly
directed graph is acyclic.  Directed cycles traverse only strictly
directed edges; direction-0 edges are never traversable.

`program_verdicts`, `all_programs_euclidean` and `has_euclidean_program`
read one cache per oriented matroid: the set of its non-Euclidean
programs, decided on first use and empty for a Euclidean class.

For a uniform oriented matroid of rank r >= 2, the verdicts come from
the chirotope's signs by pseudoline order, and so do those of the
extension programs that the Mandel checks decide (`_verdicts`).  Signs
are read on ordered tuples with U sorted first.
Fix g and an (r-2)-subset U without g.  The vertices on the line U are
the cocircuits X_a with zero set U+a, for a outside U+g; normalised to
X_g = +, they are X_a(e) = chi(U,a,e) chi(U,a,g).  The elements of the
rank-2 contraction by U have a cyclic order, and the vertices on the
line U are totally ordered as the half-turn of it that follows g.  Only
consecutive vertices are conformal, so the edges on the line are the
consecutive pairs.  The edge a -> b has direction
eps * chi(U,g,f) with eps = chi(U,g,a) chi(U,b,a) chi(U,b,g), since
Z = El(-X_a, X_b, g) has Z_a = X_b(a).  eps is constant along the line,
so for f outside U each line is one directed path, and a line with f in
U carries only direction-0 edges.  (g, f) is Euclidean iff the union of
the paths is acyclic, which a Kahn sort decides.

Each line's cyclic order, as vertex numbers, and its arcs forwards and
backwards are built once per chirotope, each list written out twice
around the circle.  The path of g on a line is the cyclic order cut at
g, so its arcs are one slice of each doubled list (`_paths_at`).

Mirror lemma: (g, f) and (f, g) have the same verdict, so the sign
route decides each unordered pair {g, f} once.  The edges on the line U
and their directions depend only on the rank-2 contraction O/U, and
every rank-2 oriented matroid is realizable, by vectors v_e in the
plane.  There a vertex is a functional x with x.v_a = 0 and
x.v_g > 0, and El(-X_a, X_b, g) is (x_a.v_g) x_b - (x_b.v_g) x_a,
whose f-sign is the sign of rho(X_b) - rho(X_a) for
rho = X(f)/X(g) = (x.v_f)/(x.v_g).
- So every arc, on every line, raises rho.  An arc can join a vertex
  with X_f = - to one with X_f = +, but never the other way, and a
  vertex with X_f = 0 only passes from one side to the other.  The sign
  of X_f is a property of the cocircuit, not of the line, so along a
  directed cycle it can never fall, and is constant: every directed
  cycle lies in one quadrant {X_g = +, X_f = s}, s = + or -.
- In that quadrant, with the vertices negated when s = -, the vertices
  and edges of (f, g) are those of (g, f).  Its objective is
  X(g)/X(f) = 1/rho, which falls where rho rises on either side of 0,
  so its arcs are those of (g, f) reversed, and the reverse of a
  directed cycle is a directed cycle.  With g and f swapped, the same
  holds the other way.

Flip rule: a flip keeps the verdict of every program with exactly one
element in the flip basis.  Let O' be the flip of a uniform O at a
mutation basis B (`faces.flip_basis`).  By the paper's theorem, which
acceptance criterion 6(b) tests, if f is in B, g is not, and (O, g, f)
is Euclidean, then so is (O', g, f).  B is a mutation basis of O' too,
and the flip of O' at B is O, so the converse holds as well: (O, g, f)
and (O', g, f) have one verdict.  By the mirror lemma the same holds for
(f, g).  So a flip child whose parent has decided its programs copies
the parent's verdicts on the r(n-r) pairs {g, f} split by B and decides
only the pairs inside B or outside it (`_non_euclidean_programs`): 12 of
28 pairs at rank 4 on 8 elements, 13 of 28 at rank 3.  A child never
looks past its parent, and an undecided parent leaves it to decide all.

`is_euclidean`, which returns directed-cycle witnesses, always builds
the cocircuit graph; it is the oracle for the sign route and the flip
rule, and the route for every input the sign route does not take.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Chirotope, OrientedMatroid
from .faces import adjacent_cocircuits, topes
from .signs import PLUS, SignVector, mask_of


class EliminationError(ValueError):
    pass


class ElementNotInSeparator(EliminationError):
    pass


class NonComodularPair(EliminationError):
    pass


def comodular(om: OrientedMatroid, x: SignVector, y: SignVector) -> bool:
    """Zero sets meet in a flat of rank exactly rank-2."""
    u = x.zero_mask & y.zero_mask
    if om.is_uniform():
        return bin(u).count("1") == om.rank - 2
    return om.subset_rank(u) == om.rank - 2


def eliminate(om: OrientedMatroid, x: SignVector, y: SignVector, e: int) -> SignVector:
    """Unique cocircuit Z with Z_e = 0 vanishing on z(X) n z(Y) and
    conforming to X o Y away from the separator."""
    sep = x.sep_mask(y)
    ebit = 1 << e
    if not sep & ebit:
        raise ElementNotInSeparator(f"element {e} does not separate the pair")
    u = x.zero_mask & y.zero_mask
    if om.subset_rank(u) != om.rank - 2:
        raise NonComodularPair("pair is not comodular; elimination is not unique")
    z = om.cocircuit_with_zero(om.closure_mask(u | ebit))
    if z is None:
        raise EliminationError("no cocircuit on the eliminated flat")
    comp = x.compose(y)
    ok_pos = ((z.pm & comp.mm) | (z.mm & comp.pm)) & ~sep == 0
    ok_neg = ((z.mm & comp.mm) | (z.pm & comp.pm)) & ~sep == 0
    if ok_pos and ok_neg:
        raise EliminationError("ambiguous elimination sign")
    if ok_pos:
        return z
    if ok_neg:
        return -z
    raise EliminationError("no conforming elimination sign (axiom violation?)")


@dataclass(frozen=True)
class Program:
    """An oriented-matroid program (om, g, f): g at infinity, f the target."""

    om: OrientedMatroid
    g: int
    f: int

    def __post_init__(self):
        n = self.om.n
        if not (0 <= self.g < n and 0 <= self.f < n):
            raise ValueError("g or f out of range")
        if self.g == self.f:
            raise ValueError("g and f must differ")
        if self.g in self.om.loops():
            raise ValueError(f"g={self.g} is a loop")
        if self.f in self.om.coloops():
            raise ValueError(f"f={self.f} is a coloop")


def _neighbour_pairs(om: OrientedMatroid, verts) -> Iterator[tuple[int, int]]:
    """Index pairs i < j, i-major, of conformal comodular cocircuits in verts."""
    uniform = om.is_uniform()
    want = om.rank - 2
    for i, x in enumerate(verts):
        for j in range(i + 1, len(verts)):
            y = verts[j]
            if x.sep_mask(y):
                continue
            u = x.zero_mask & y.zero_mask
            if uniform:
                if u.bit_count() != want:
                    continue
            elif om.subset_rank(u) != want:
                continue
            yield i, j


def _edges_for_g(om: OrientedMatroid, g: int):
    """Vertices (cocircuits with g=+) and edges with their eliminations.

    Cached per (om, g); directions for any target f read off the stored
    elimination cocircuits.
    """
    cached = om._graph_cache.get(g)
    if cached is not None:
        return cached
    verts = tuple(x for x in om.sorted_cocircuits() if x[g] == PLUS)
    edges = tuple(
        (i, j, eliminate(om, -verts[i], verts[j], g))
        for i, j in _neighbour_pairs(om, verts)
    )
    cached = om._graph_cache[g] = (verts, edges)
    return cached


@dataclass(frozen=True)
class CocircuitGraph:
    g: int
    f: int
    vertices: tuple[SignVector, ...]
    edges: tuple[tuple[int, int, SignVector], ...]
    directions: tuple[int, ...]  # sign of Z_f per edge; + directs i -> j

    def gf_plus(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.vertices) if v[self.f] > 0)

    def gf_minus(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.vertices) if v[self.f] < 0)

    def arcs(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.vertices]
        for (i, j, _), d in zip(self.edges, self.directions):
            if d > 0:
                out[i].append(j)
            elif d < 0:
                out[j].append(i)
        return out


def cocircuit_graph(p: Program) -> CocircuitGraph:
    verts, edges = _edges_for_g(p.om, p.g)
    dirs = tuple(z[p.f] for _, _, z in edges)
    return CocircuitGraph(p.g, p.f, verts, edges, dirs)


def edge_direction(p: Program, x: SignVector, y: SignVector) -> int:
    """Sign of the f-coordinate of El(-X, Y, g); + directs X -> Y."""
    if x[p.g] != PLUS or y[p.g] != PLUS:
        raise ValueError("both cocircuits must lie in the g=+ hemisphere")
    z = _edge_elimination(p, x, y)
    if z is None:
        raise ValueError("pair is not an edge of the cocircuit graph")
    return z[p.f]


def _edge_elimination(p: Program, x: SignVector, y: SignVector) -> Optional[SignVector]:
    """El(-X, Y, g) when X, Y are conformal and comodular, else None."""
    if x.sep_mask(y) or not comodular(p.om, x, y):
        return None
    return eliminate(p.om, -x, y, p.g)


def _cycle_witness(p: Program, verts) -> DirectedCycleWitness:
    """The witness on a vertex cycle, with the edge eliminations."""
    k = len(verts)
    dirs = (eliminate(p.om, -verts[t], verts[(t + 1) % k], p.g) for t in range(k))
    return DirectedCycleWitness(tuple(verts), tuple(dirs))


def _tarjan_scc(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components in deterministic order."""
    n = len(adj)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                visited[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if not visited[w]:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


@dataclass(frozen=True)
class DirectedCycleWitness:
    """A strictly directed cycle: vertices in order, plus the edge
    eliminations Z_i (Z_i at g = 0) directing vertex i to vertex i+1."""

    vertices: tuple[SignVector, ...]
    directions: tuple[SignVector, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {
            "vertices": [v.to_string() for v in self.vertices],
            "edge_cocircuits": [z.to_string() for z in self.directions],
        }


@dataclass(frozen=True)
class EuclideanVerdict:
    euclidean: bool
    witness: Optional[DirectedCycleWitness] = None

    def __bool__(self) -> bool:
        return self.euclidean


def _shortest_cycle(adj: list[list[int]], comp: list[int]) -> list[int]:
    """Shortest directed cycle within one strongly connected component."""
    inside = set(comp)
    best: Optional[list[int]] = None
    for start in comp:
        prev = {start: -1}
        frontier = [start]
        found = None
        while frontier and found is None:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w == start:
                        found = v
                        break
                    if w in inside and w not in prev:
                        prev[w] = v
                        nxt.append(w)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            path = [found]
            while path[-1] != start:
                path.append(prev[path[-1]])
            path.reverse()
            if best is None or len(path) < len(best):
                best = path
    if best is None:
        raise RuntimeError("no cycle in a nontrivial component")
    return best


def is_euclidean(p: Program) -> EuclideanVerdict:
    """Acyclicity of the strictly directed cocircuit graph, with a
    directed-cycle witness extracted from a nontrivial component."""
    graph = cocircuit_graph(p)
    adj = graph.arcs()
    comps = _tarjan_scc(adj)
    nontrivial = [c for c in comps if len(c) > 1]
    if not nontrivial:
        return EuclideanVerdict(True)
    cycle = _shortest_cycle(adj, nontrivial[0])
    witness = _cycle_witness(p, [graph.vertices[i] for i in cycle])
    return EuclideanVerdict(False, witness)


def very_strong_components(p: Program) -> list[tuple[tuple[SignVector, ...], bool]]:
    """SCC partition of the strictly directed graph; singletons flagged isolated."""
    graph = cocircuit_graph(p)
    comps = _tarjan_scc(graph.arcs())
    out = []
    for comp in sorted(comps):
        vs = tuple(graph.vertices[i] for i in comp)
        out.append((vs, len(comp) == 1))
    return out


def valid_programs(om: OrientedMatroid) -> list[tuple[int, int]]:
    loops = om.loops()
    coloops = om.coloops()
    return [
        (g, f)
        for g in range(om.n)
        if g not in loops
        for f in range(om.n)
        if f != g and f not in coloops
    ]


def _pseudolines(chi: Chirotope, index: dict[int, int]) -> list[tuple]:
    """For each (r-2)-subset U, as a mask: the table t[x][y] = chi(U, x, y)
    for x, y outside U (0 elsewhere); the elements outside U in
    pseudoline order, a half-turn of the rank-2 contraction by U; each
    element's place in that order (-1 on U); and the arcs between
    consecutive vertices, as `index` numbers of their zero sets U+a,
    forwards and backwards around the order twice."""
    n, signs = chi.n, chi.signs
    out = []
    for u in itertools.combinations(range(n), chi.rank - 2):
        um = mask_of(u)
        rest = [x for x in range(n) if not um >> x & 1]
        # the parity of moving x in front of the elements of U above it
        par = [-1 if (um >> x + 1).bit_count() & 1 else 1 for x in range(n)]
        t = [[0] * n for _ in range(n)]
        for i, x in enumerate(rest):
            tx = t[x]
            for y in rest[i + 1:]:
                s = par[x] * par[y] * signs[um | 1 << x | 1 << y]
                tx[y] = s
                t[y][x] = -s
        # reorient every a to the side of the first element h, where
        # chi(U, h, a) > 0; then a precedes b iff chi(U, a, b) > 0
        h, others = rest[0], rest[1:]
        side = t[h]
        order = [h] + [0] * len(others)
        for a in others:
            ta, sa = t[a], side[a]
            order[1 + sum(1 for b in others if sa * side[b] * ta[b] < 0)] = a
        place = [-1] * n
        for i, a in enumerate(order):
            place[a] = i
        ids = [index[um | 1 << a] for a in order] * 2
        fwd = list(zip(ids, ids[1:]))
        out.append((um, t, order, place, fwd, [(j, i) for i, j in fwd]))
    return out


def _paths_at(pseudolines, g: int) -> list[tuple]:
    """(U, chi(U, g, .), eps, arcs forwards, arcs backwards) for every
    line U without g.  Its vertices lie in the half-turn that follows g:
    the order cut at g, so its arcs are slices of the doubled lists."""
    out = []
    for um, t, order, place, fwd, bwd in pseudolines:
        k = place[g]
        if k < 0:
            continue
        m = len(order)
        tg = t[g]
        a, b = order[(k + 1) % m], order[(k + 2) % m]
        eps = tg[a] * t[b][a] * t[b][g]
        out.append((um, tg, eps, fwd[k + 1:k + m - 1], bwd[k + 1:k + m - 1]))
    return out


def _acyclic(size: int, verts: list[int], arc_lists) -> bool:
    """Whether the arcs, pairs of vertex numbers below size, leave the
    vertices verts acyclic: a Kahn sort reaches all of them."""
    succ: list[list[int]] = [[] for _ in range(size)]
    indeg = [0] * size
    for arcs in arc_lists:
        for i, j in arcs:
            succ[i].append(j)
            indeg[j] += 1
    stack = [v for v in verts if not indeg[v]]
    done = 0
    while stack:
        done += 1
        for w in succ[stack.pop()]:
            indeg[w] -= 1
            if not indeg[w]:
                stack.append(w)
    return done == len(verts)


def _sign_verdicts(
    om: OrientedMatroid, programs: list[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], bool]]:
    """Verdicts of valid programs of a uniform oriented matroid of rank
    >= 2, read from the chirotope's signs by the
    pseudoline rule in the module docstring.  programs lists (g, f)
    grouped by g.  Each unordered pair {g, f} is decided once, and its
    mirror answered from that verdict (the mirror lemma); the paths of
    g are built once per run of one g, when a program there is new."""
    # vertices are numbered by their zero sets, the (r-1)-subsets
    index = {
        mask_of(z): i
        for i, z in enumerate(itertools.combinations(range(om.n), om.rank - 1))
    }
    pseudolines = _pseudolines(om.chirotope, index)
    decided: dict[tuple[int, int], bool] = {}
    current = -1
    for g, f in programs:
        pair = (g, f) if g < f else (f, g)
        ok = decided.get(pair)
        if ok is None:
            if g != current:
                current = g
                paths = _paths_at(pseudolines, g)
                verts = [v for z, v in index.items() if not z >> g & 1]
            # a line with f in U carries only direction-0 edges
            arcs = (
                fwd if eps * tg[f] > 0 else bwd
                for um, tg, eps, fwd, bwd in paths
                if not um >> f & 1
            )
            ok = decided[pair] = _acyclic(len(index), verts, arcs)
        yield (g, f), ok


def _verdicts(
    om: OrientedMatroid, programs: list[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], bool]]:
    """((g, f), Euclidean?) for valid programs of om, a list grouped by
    g: from the signs for a uniform oriented matroid of rank >= 2, else
    from the cocircuit graph (`is_euclidean`).  Lazy, so a caller that
    stops early decides no further program."""
    if om.rank >= 2 and om.is_uniform():
        return _sign_verdicts(om, programs)
    return (
        ((g, f), is_euclidean(Program(om, g, f)).euclidean)
        for g, f in programs
    )


_ALL_EUCLIDEAN = frozenset()  # shared by every Euclidean oriented matroid


def _non_euclidean_programs(om: OrientedMatroid) -> frozenset[tuple[int, int]]:
    """The non-Euclidean programs of om, decided once per oriented matroid
    and cached on it (`OrientedMatroid._non_euclidean`).  A flip child of
    a parent that has decided its own copies the parent's verdicts on
    the programs with one element in the flip basis (the flip rule) and
    decides the rest; then it lets go of the parent."""
    if om._non_euclidean is None:
        programs = valid_programs(om)
        bad = []
        if om._flipped_from is not None:
            m, parent = om._flipped_from
            if parent._non_euclidean is not None:
                # (m >> g ^ m >> f) & 1: one of g, f in the basis
                bad = [(g, f) for g, f in parent._non_euclidean if (m >> g ^ m >> f) & 1]
                programs = [(g, f) for g, f in programs if not (m >> g ^ m >> f) & 1]
        bad.extend(pair for pair, ok in _verdicts(om, programs) if not ok)
        om._non_euclidean = frozenset(bad) or _ALL_EUCLIDEAN
        om._flipped_from = None
    return om._non_euclidean


def program_verdicts(om: OrientedMatroid) -> dict[tuple[int, int], bool]:
    """Euclidean? for each program, in `valid_programs` order."""
    bad = _non_euclidean_programs(om)
    return {pair: pair not in bad for pair in valid_programs(om)}


def all_programs_euclidean(om: OrientedMatroid) -> bool:
    return not _non_euclidean_programs(om)


def has_euclidean_program(om: OrientedMatroid) -> bool:
    return len(_non_euclidean_programs(om)) < len(valid_programs(om))


def is_totally_non_euclidean(om: OrientedMatroid) -> bool:
    """The oriented matroid has a valid program and none of them is
    Euclidean; false when there is no valid program."""
    return len(_non_euclidean_programs(om)) == len(valid_programs(om)) > 0


def verify_witness(p: Program, w: DirectedCycleWitness) -> bool:
    """Re-run the edge checks: every consecutive pair is a strictly
    forward-directed edge whose elimination matches."""
    k = len(w.vertices)
    if k < 3:
        return False
    for t in range(k):
        x, y = w.vertices[t], w.vertices[(t + 1) % k]
        if x[p.g] != PLUS or y[p.g] != PLUS:
            return False
        z = _edge_elimination(p, x, y)
        if z is None or z != w.directions[t] or z[p.f] != PLUS:
            return False
    return True


def find_chords(
    p: Program, w: DirectedCycleWitness
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """Chords of the cycle: (i, j, direction-sign) for directed ones and
    (i, j) for direction-0 ones."""
    k = len(w.vertices)
    directed = []
    undirected = []
    for i in range(k):
        for j in range(i + 2, k):
            if (j + 1) % k == i:
                continue
            z = _edge_elimination(p, w.vertices[i], w.vertices[j])
            if z is None:
                continue
            d = z[p.f]
            if d == 0:
                undirected.append((i, j))
            else:
                directed.append((i, j, d))
    return directed, undirected


def reduce_cycle_chordless(p: Program, w: DirectedCycleWitness) -> DirectedCycleWitness:
    """Shortcut forward chords and cut at backward chords until no
    strictly directed chord remains.  The output is again a directed
    cycle; direction-0 chords are untraversable and left in place."""
    verts = list(w.vertices)
    while (chord := _directed_chord(p, verts)) is not None:
        i, j, d = chord
        k = len(verts)
        if d > 0:
            # go directly from i to j: keep j, j+1, ..., i
            verts = [verts[(j + t) % k] for t in range((i - j) % k + 1)]
        else:
            # segment i..j plus the chord back
            verts = [verts[(i + t) % k] for t in range((j - i) % k + 1)]
    return _cycle_witness(p, verts)


def _directed_chord(p: Program, verts) -> Optional[tuple[int, int, int]]:
    """The first strictly directed chord (i, j, sign), over all ordered
    pairs, i-major, or None."""
    k = len(verts)
    for i in range(k):
        for j in range(k):
            if j in (i, (i + 1) % k) or (j + 1) % k == i:
                continue
            z = _edge_elimination(p, verts[i], verts[j])
            if z is not None and z[p.f]:
                return i, j, z[p.f]
    return None


@dataclass(frozen=True)
class CycleElementReport:
    values: tuple[int, ...]
    all_zero: bool
    constant_nonzero: bool
    half_open: bool
    on_edge_zero: bool
    both_signs_present: bool


@dataclass(frozen=True)
class CycleReport:
    per_element: dict
    edges_on_single_simplicial_tope: bool
    confining_topes: tuple[SignVector, ...]
    any_confining_tope_fully_used: bool

    def to_json(self) -> dict:
        return {
            "per_element": {
                str(e): vars(rep) for e, rep in sorted(self.per_element.items())
            },
            "edges_on_single_simplicial_tope": self.edges_on_single_simplicial_tope,
            "confining_topes": [t.to_string() for t in self.confining_topes],
            "any_confining_tope_fully_used": self.any_confining_tope_fully_used,
        }


def analyze_cycle(p: Program, w: DirectedCycleWitness) -> CycleReport:
    """Raw per-element sign structure of a directed cycle, plus the
    simplicial-tope confinement checks."""
    om = p.om
    verts = w.vertices
    k = len(verts)
    edge_zero_masks = [
        verts[t].compose(verts[(t + 1) % k]).zero_mask for t in range(k)
    ]
    per = {}
    for e in range(om.n):
        ebit = 1 << e
        vals = {v[e] for v in verts}
        on_edge = any(zm & ebit for zm in edge_zero_masks)
        per[e] = CycleElementReport(
            values=tuple(sorted(vals)),
            all_zero=vals == {0},
            constant_nonzero=len(vals) == 1 and 0 not in vals,
            half_open=(vals <= {0, PLUS} or vals <= {0, -PLUS}) and vals != {0},
            on_edge_zero=on_edge,
            both_signs_present=(PLUS in vals and -PLUS in vals),
        )
    vert_set = set(verts)
    confining = []
    fully_used = False
    edges_on_one_simplicial = False
    for t in topes(om):
        adj = adjacent_cocircuits(om, t)
        if vert_set <= adj:
            confining.append(t)
            if adj <= vert_set:
                fully_used = True
        if len(adj) == om.rank:
            # all cycle edges on this simplicial tope?
            if all(
                verts[i].leq(t) and verts[(i + 1) % k].leq(t) for i in range(k)
            ):
                edges_on_one_simplicial = True
    return CycleReport(
        per_element=per,
        edges_on_single_simplicial_tope=edges_on_one_simplicial,
        confining_topes=tuple(sorted(confining, key=SignVector.sort_key)),
        any_confining_tope_fully_used=fully_used,
    )
