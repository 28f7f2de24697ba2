"""Classification chain and flip-graph searches.

The chain: realizable-by-construction implies all programs Euclidean
implies a Mandel witness exists implies every element has an adjacent
mutation (Las Vergnas).  Witness search is sufficient-only: absence
within budget is 'undetermined', never a disproof.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .canonical import canonical_form, canonical_search
from .core import OrientedMatroid
from .extensions import LexExtensionSpec, _mandel_pipeline_results, lex_extend
from .faces import flip_basis, mutation_adjacency, mutation_bases
from .programs import _verdicts, all_programs_euclidean, is_totally_non_euclidean
from .signs import PLUS, bits, mask_of


@dataclass(frozen=True)
class MandelWitness:
    """Either a plain lexicographic extension spec or the
    extend-then-flip pipeline data; both name the extension element that
    makes every program with it Euclidean.  In rank 0 the only extension
    adds a loop (kind "loop"): it lies in no hyperplane, as there is
    none, and no program has a loop at infinity."""

    kind: str  # "lex" | "flip-pipeline" | "loop"
    spec: Optional[LexExtensionSpec] = None
    mutation: Optional[tuple[int, ...]] = None
    g: Optional[int] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.spec is not None:
            out["spec"] = self.spec.to_string()
        if self.mutation is not None:
            out["mutation"] = list(self.mutation)
        if self.g is not None:
            out["g"] = self.g
        return out


def is_las_vergnas(om: OrientedMatroid) -> bool:
    """Every non-loop, non-coloop element has an adjacent mutation."""
    return all(mutation_adjacency(om).values())


def _verify_lex_witness(om: OrientedMatroid, spec: LexExtensionSpec) -> bool:
    ext = lex_extend(om, spec)
    g = om.n
    if not ext.is_general_position(g):
        return False
    coloops = ext.coloops()
    if g in coloops:
        return False
    programs = [(g, f) for f in range(om.n) if f not in coloops]
    return all(ok for _, ok in _verdicts(ext, programs))


def mandel_witness_search(
    om: OrientedMatroid, budget: int = 2000
) -> Optional[MandelWitness]:
    """Search for an extension in general position making all programs
    with it Euclidean; each candidate costs one unit of the budget.  A
    non-Euclidean input first tries the flip pipeline at each mutation
    basis whose flip is Euclidean; then come the lexicographic specs,
    from 0:+,1:+,...,(r-1):+ on.  Returns None when the budget runs out
    (undetermined, not a no)."""
    if not om.is_uniform():
        raise ValueError("witness search implemented for uniform oriented matroids")
    if budget <= 0:
        return None
    if om.rank == 0:
        return MandelWitness("loop")
    spent = 0
    if not all_programs_euclidean(om):
        # one flip away from a Euclidean mutant
        for basis in mutation_bases(om):
            if spent >= budget:
                return None
            spent += 1
            if not all_programs_euclidean(flip_basis(om, basis)):
                continue
            for result in _mandel_pipeline_results(om, basis):
                if result.ok:
                    return MandelWitness(
                        "flip-pipeline", spec=result.spec,
                        mutation=result.mutation, g=result.g,
                    )
                spent += 1
                if spent >= budget:
                    return None
    # brute lexicographic search
    for elems in itertools.permutations(range(om.n), om.rank):
        for pattern in itertools.product((PLUS, -PLUS), repeat=om.rank):
            if spent >= budget:
                return None
            spent += 1
            spec = LexExtensionSpec(tuple(zip(elems, pattern)))
            if _verify_lex_witness(om, spec):
                return MandelWitness("lex", spec=spec)
    return None


@dataclass
class ClassificationReport:
    n: int
    rank: int
    uniform: bool
    realizable_by_construction: bool
    euclidean_all_programs: bool
    totally_non_euclidean: bool
    las_vergnas: bool
    mandel_witness: Optional[MandelWitness]
    mandel_undetermined: bool
    L: Optional[int]
    adjacency: dict
    mutation_count: int
    consistency_violations: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "uniform": self.uniform,
            "realizable_by_construction": self.realizable_by_construction,
            "euclidean_all_programs": self.euclidean_all_programs,
            "totally_non_euclidean": self.totally_non_euclidean,
            "las_vergnas": self.las_vergnas,
            "mandel_witness": self.mandel_witness.to_json()
            if self.mandel_witness
            else None,
            "mandel_undetermined": self.mandel_undetermined,
            "L": self.L,
            "adjacency": {str(e): c for e, c in sorted(self.adjacency.items())},
            "mutation_count": self.mutation_count,
            "consistency_violations": self.consistency_violations,
        }


def classify(om: OrientedMatroid, mandel_budget: int = 2000) -> ClassificationReport:
    """The classification chain; the Mandel witness search runs on
    uniform input only, and is undetermined on the rest."""
    adjacency = mutation_adjacency(om)
    lv = all(adjacency.values())
    eall = all_programs_euclidean(om)
    tne = is_totally_non_euclidean(om)
    witness = None
    undetermined = False
    if om.is_uniform():
        witness = mandel_witness_search(om, budget=mandel_budget)
        undetermined = witness is None
    else:
        undetermined = True
    report = ClassificationReport(
        n=om.n,
        rank=om.rank,
        uniform=om.is_uniform(),
        realizable_by_construction=om.provenance == "from-points",
        euclidean_all_programs=eall,
        totally_non_euclidean=tne,
        las_vergnas=lv,
        mandel_witness=witness,
        mandel_undetermined=undetermined,
        L=min(adjacency.values(), default=None),
        adjacency=adjacency,
        mutation_count=len(mutation_bases(om)),
    )
    if report.realizable_by_construction and not report.euclidean_all_programs:
        report.consistency_violations.append("realizable but not Euclidean")
    if report.mandel_witness is not None and not report.las_vergnas:
        report.consistency_violations.append("Mandel witness but not Las Vergnas")
    if report.totally_non_euclidean and report.euclidean_all_programs:
        report.consistency_violations.append("totally non-Euclidean yet Euclidean")
    return report


@dataclass
class MutationGraphNode:
    key: str
    om: OrientedMatroid
    depth: int
    neighbors: list = field(default_factory=list)


@dataclass
class MutationGraph:
    nodes: dict
    seed_key: str
    exhausted_budget: bool

    def to_json(self) -> dict:
        """The seed class's key, and per class: depth, chirotope and
        sorted neighbour keys.  A budget-cut graph (`budget_exhausted`)
        lists neighbours only for the classes the search expanded before
        it stopped; the others, like the classes at the depth limit, have
        an empty list."""
        return {
            "seed_key": self.seed_key,
            "budget_exhausted": self.exhausted_budget,
            "nodes": {
                k: {
                    "depth": node.depth,
                    "chirotope": node.om.chirotope.to_string(),
                    "neighbors": sorted(set(node.neighbors)),
                }
                for k, node in self.nodes.items()
            },
        }


def _labelled(chi) -> int:
    """A uniform chirotope's labelled sign sequence as one int: bit m is
    set iff the basis with bitmask m is negative."""
    return sum(1 << m for m, s in enumerate(chi.signs) if s < 0)


def _images(mask: int, gens) -> set:
    """The orbit of an element set (a bitmask) under the maps in gens."""
    orbit = {mask}
    stack = [mask]
    while stack:
        m = stack.pop()
        for sigma in gens:
            image = 0
            for e in bits(m):
                image |= 1 << sigma[e]
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _implied_entries(parent, parent_key, parent_labelled, mask, child, rep):
    """Memo entries implied by keying child, the flip of parent at the
    basis mask, to the class whose node holds rep.

    The flips of parent at the images of the basis under parent's
    automorphisms are isomorphic to child.  The key searches of child
    and rep spell one string, so phi = perm_rep o perm_child^-1 maps
    child onto rep up to reorientation and negation; flipping child back
    at the basis gives parent, so flipping rep at phi(basis), or at any
    image of it under rep's automorphisms, gives parent's class.
    """
    found, into = canonical_search(child), canonical_search(rep)
    if found.perm is None:
        return  # rank <= 2: no search, no transform
    for m in _images(mask, canonical_search(parent).gens):
        yield parent_labelled ^ (1 << m), found.key
    position = {e: p for p, e in enumerate(found.perm)}
    back = mask_of(into.perm[position[e]] for e in bits(mask))
    rep_labelled = _labelled(rep.chirotope)
    for m in _images(back, into.gens):
        yield rep_labelled ^ (1 << m), parent_key


def mutation_graph_bfs(
    seed: OrientedMatroid,
    max_nodes: int = 1000,
    max_depth: Optional[int] = None,
    node_hook=None,
) -> MutationGraph:
    """Flip BFS with canonical-form dedup, deterministic order.

    node_hook(node) runs once per accepted node, in BFS order; a hook
    that returns a true value ends the search after that node.

    The budget is exhausted when a new class is refused because
    max_nodes classes are already in: the search finishes the node it
    is expanding, sets `exhausted_budget` and returns a partial graph.
    The nodes it expanded, a prefix in BFS order, have full neighbour
    lists; the nodes still queued, and those at max_depth, keep empty
    ones (a hook that ends the search also cuts its parent's list
    short).  A budget equal to the closure size refuses no class, so
    the search runs on and confirms the closure.

    A memo from labelled chirotopes (`_labelled`) to keys spares a child
    met before its flip and its key.  Each child keyed afresh enters,
    besides itself, the flips its key search implies
    (`_implied_entries`): the parent's flips in the child's orbit under
    the parent's automorphisms, and the flips of the class's node back
    to the parent's class.  So an edge between two classes, and every
    edge in its automorphism orbit, is keyed once.  Only memo hits
    change: nodes, their order and their neighbour lists are the same
    as with every child keyed.
    """
    if not seed.is_uniform():
        raise ValueError("mutation graph BFS requires a uniform seed")
    seed_key = canonical_form(seed)
    keys = {_labelled(seed.chirotope): seed_key}
    root = MutationGraphNode(seed_key, seed, 0)
    nodes: dict[str, MutationGraphNode] = {seed_key: root}
    graph = MutationGraph(nodes, seed_key, False)
    if node_hook is not None and node_hook(root):
        return graph
    queue = deque([root])
    while queue and not graph.exhausted_budget:
        node = queue.popleft()
        if max_depth is not None and node.depth >= max_depth:
            continue
        base = _labelled(node.om.chirotope)
        for basis in mutation_bases(node.om):
            mask = mask_of(basis)
            labelled = base ^ (1 << mask)
            key = keys.get(labelled)
            child = None
            if key is None:
                child = flip_basis(node.om, basis)
                key = keys[labelled] = canonical_form(child)
                rep = nodes[key].om if key in nodes else child
                keys.update(
                    _implied_entries(node.om, node.key, base, mask, child, rep)
                )
            node.neighbors.append(key)
            if key in nodes:
                continue
            if len(nodes) >= max_nodes:
                graph.exhausted_budget = True
                continue
            # every memo value is the key of a node or of a child keyed
            # once the budget ran out, so a new node always comes with a
            # freshly flipped child
            new = MutationGraphNode(key, child, node.depth + 1)
            nodes[key] = new
            if node_hook is not None and node_hook(new):
                return graph
            queue.append(new)
    return graph


def flip_distance_to_euclidean(
    om: OrientedMatroid, radius: int = 3, max_nodes: int = 4000
) -> Optional[int]:
    """BFS distance to the nearest class whose programs are all
    Euclidean; None if not found within the radius, or among the first
    max_nodes classes the search accepts."""
    found = []

    def hook(node):
        if all_programs_euclidean(node.om):
            found.append(node.depth)
            return True
        return False

    mutation_graph_bfs(om, max_nodes=max_nodes, max_depth=radius, node_hook=hook)
    return found[0] if found else None


def summary_table(oms: Iterable[OrientedMatroid]) -> dict:
    """Aggregate the minimum per-element mutation adjacency by class
    flags; a class with no non-loop, non-coloop element has no L, and is
    counted without moving min_L or max_L."""
    rows: dict[str, dict] = {}

    def bump(bucket: str, value: Optional[int]):
        row = rows.setdefault(bucket, {"count": 0, "min_L": None, "max_L": None})
        row["count"] += 1
        if value is None:
            return
        row["min_L"] = value if row["min_L"] is None else min(row["min_L"], value)
        row["max_L"] = value if row["max_L"] is None else max(row["max_L"], value)

    for om in oms:
        adjacency = mutation_adjacency(om)
        L = min(adjacency.values(), default=None)
        bump("all", L)
        if om.provenance == "from-points":
            bump("realizable", L)
        if all_programs_euclidean(om):
            bump(f"euclidean-rank-{om.rank}", L)
        if all(adjacency.values()):
            bump("las-vergnas", L)
    return rows
