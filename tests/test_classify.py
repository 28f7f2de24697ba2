import importlib
import itertools
import json
import random
from collections import deque

import pytest

from omforge.canonical import canonical_form, canonical_key
from omforge.classify import (
    classify,
    flip_distance_to_euclidean,
    is_las_vergnas,
    mandel_witness_search,
    mutation_graph_bfs,
    summary_table,
)
from omforge.cli import EXIT_INVALID, run
from omforge.core import (
    Chirotope,
    InvalidCocircuits,
    chirotope_from_cocircuits,
    cocircuits_from_chirotope,
    om_from_cocircuits,
    om_from_points,
)
from omforge.corpus import cyclic_om, non_euclidean_848, random_points, w3
from omforge.extensions import lex_extend
from omforge.faces import flip, flip_basis, mutation_bases, mutation_from_basis, mutations
from omforge.programs import Program, all_programs_euclidean, is_euclidean
from omforge.signs import SignVector, mask_of

# the modules, which the package's functions of the same names shadow
canonical_module = importlib.import_module("omforge.canonical")
classify_module = importlib.import_module("omforge.classify")


def test_w3_las_vergnas():
    assert is_las_vergnas(w3())


def test_realizable_las_vergnas():
    rng = random.Random(51)
    for _ in range(4):
        assert is_las_vergnas(om_from_points(random_points(rng, 3, 6)))


def test_mandel_witness_euclidean_first_candidate():
    om = cyclic_om(3, 6)
    witness = mandel_witness_search(om)
    assert witness is not None and witness.kind == "lex"
    # the witness extension makes all programs with it Euclidean
    ext = lex_extend(om, witness.spec)
    g = om.n
    assert all(
        is_euclidean(Program(ext, g, f)).euclidean for f in range(om.n)
    )


def test_mandel_witness_zero_budget_undetermined():
    assert mandel_witness_search(cyclic_om(3, 6), budget=0) is None


def test_mandel_witness_budget_one_euclidean():
    # one unit of budget buys the first lexicographic candidate
    for om in (cyclic_om(3, 6), cyclic_om(4, 8)):
        witness = mandel_witness_search(om, budget=1)
        assert witness.kind == "lex"
        assert witness.spec.to_string() == ",".join(f"{e}:+" for e in range(om.rank))


def test_mandel_witness_budget_runs_out_in_flip_phase():
    # relabelled so that the first mutation basis flips to a
    # non-Euclidean class: budget 1 is spent on that basis, budget 2
    # reaches the next one, whose flip pipeline gives the witness
    chi = non_euclidean_848().chirotope.relabel([0, 4, 5, 6, 1, 2, 3, 7])
    om = cocircuits_from_chirotope(chi)
    first, second = mutation_bases(om)[:2]
    assert not all_programs_euclidean(flip_basis(om, first))
    assert all_programs_euclidean(flip_basis(om, second))
    assert mandel_witness_search(om, budget=1) is None
    witness = mandel_witness_search(om, budget=2)
    assert witness.kind == "flip-pipeline" and witness.mutation == second


def test_mandel_witness_from_cocircuits_alone(non_euclidean_om):
    # a uniform class given by its cocircuits is searched on its
    # recovered chirotope, which gives back the cocircuits, and gets the
    # same witness and report as the class's own chirotope
    om = non_euclidean_om
    copy = om_from_cocircuits(om.n, om.rank, om.cocircuits)
    assert copy.cocircuits == om.cocircuits
    assert mandel_witness_search(copy, budget=5) == mandel_witness_search(om)
    assert classify(copy).to_json() == classify(om).to_json()


def test_mandel_witness_ignores_a_recovery_that_changes_cocircuits(tmp_path, capsys):
    # one sign changed in one cocircuit pair: not an oriented matroid, but
    # its recovered chirotope is valid (it is non_euclidean_848's), so
    # only the cocircuit comparison rejects the set, and every command
    # exits 3 on it as a .ccj file
    src = non_euclidean_848()
    x = src.sorted_cocircuits()[0]
    y = SignVector(x.n, x.pm ^ 1, x.mm ^ 1)
    bad = sorted((src.cocircuits - {x, -x}) | {y, -y}, key=SignVector.sort_key)
    chi = chirotope_from_cocircuits(src.n, bad)
    assert cocircuits_from_chirotope(chi).cocircuits == src.cocircuits
    with pytest.raises(InvalidCocircuits, match="axiom C3"):
        om_from_cocircuits(src.n, src.rank, bad)
    path = tmp_path / "bad.ccj"
    path.write_text(json.dumps(
        {"n": 8, "rank": 4, "cocircuits": [v.to_string() for v in bad]}
    ))
    for argv in (
        ["validate"], ["cocircuits"], ["topes"], ["mutations"],
        ["euclidean", "--g", "0", "--f", "1"], ["euclidean-all"],
        ["lexext", "--spec", "0:+,1:+,2:+,3:+"], ["flip", "--basis", "0,1,2,3"],
        ["perturb", "--cocircuit", "0+0000+0", "--element", "0"], ["classify"],
        ["mutation-graph"], ["mandel-pipeline", "--mutation", "0,1,2,3", "--g", "4"],
        ["summary"],
    ):
        assert run([argv[0], str(path), *argv[1:]]) == EXIT_INVALID, argv
    capsys.readouterr()


def test_mandel_witness_non_euclidean(non_euclidean_om):
    witness = mandel_witness_search(non_euclidean_om)
    assert witness is not None
    assert witness.kind == "flip-pipeline"


def test_mandel_witness_non_euclidean_golden(non_euclidean_om):
    # the first ok pipeline result: head 0 in basis order, then g = 3
    witness = mandel_witness_search(non_euclidean_om)
    assert witness.kind == "flip-pipeline"
    assert witness.mutation == (0, 1, 2, 5)
    assert witness.g == 3
    assert witness.spec.to_string() == "0:+,3:-,2:-,5:-"


def test_mandel_implies_las_vergnas(non_euclidean_om):
    report = classify(non_euclidean_om)
    assert report.mandel_witness is not None
    assert report.las_vergnas
    assert not report.euclidean_all_programs
    assert not report.totally_non_euclidean
    assert report.consistency_violations == []


def test_classify_cyclic():
    report = classify(cyclic_om(4, 8))
    assert report.uniform
    assert report.realizable_by_construction
    assert report.euclidean_all_programs
    assert report.las_vergnas
    assert report.L == 4
    assert report.mutation_count == 8
    assert report.consistency_violations == []


def test_w3_bfs_closure_single_class():
    # all 8 rank-2 sign assignments on 3 elements are one class
    graph = mutation_graph_bfs(w3(), max_nodes=50)
    assert len(graph.nodes) == 1
    assert not graph.exhausted_budget
    # exhaustive oracle: every uniform rank-2 chirotope on 3 elements
    # canonicalizes to the same key
    import itertools

    keys = set()
    for signs in itertools.product("+-", repeat=3):
        chi = Chirotope.from_string(2, 3, "".join(signs))
        keys.add(canonical_key(chi))
    assert len(keys) == 1


def test_rank3_bfs_closure():
    graph = mutation_graph_bfs(cyclic_om(3, 6), max_nodes=500)
    assert not graph.exhausted_budget
    # 4 simple arrangements of six pseudolines
    assert len(graph.nodes) == 4


def test_bfs_budget_exhaustion_flagged():
    graph = mutation_graph_bfs(cyclic_om(3, 6), max_nodes=2)
    assert graph.exhausted_budget
    assert len(graph.nodes) == 2


def test_flip_distance():
    assert flip_distance_to_euclidean(cyclic_om(4, 8)) == 0


def test_flip_distance_one(non_euclidean_om):
    assert flip_distance_to_euclidean(non_euclidean_om, radius=1) == 1


def test_mandel_minor_stability(non_euclidean_om):
    # contractions and rank-preserving deletions of a witnessed om
    # re-witness within budget
    om = non_euclidean_om
    assert mandel_witness_search(om) is not None
    contracted = om.contract({0})
    assert contracted.rank == 3
    assert mandel_witness_search(contracted) is not None
    deleted = om.delete({7})
    assert deleted.rank == 4
    assert mandel_witness_search(deleted) is not None


def test_summary_table():
    rng = random.Random(52)
    oms = [
        om_from_points(random_points(rng, 2, 5)),
        om_from_points(random_points(rng, 3, 6)),
        cyclic_om(4, 8),
    ]
    rows = summary_table(oms)
    assert rows["realizable"]["count"] == 3
    assert rows["realizable"]["min_L"] >= 2
    assert rows["euclidean-rank-4"]["min_L"] >= 3
    assert rows["euclidean-rank-3"]["min_L"] == 3


def reference_bfs(seed):
    """The flip BFS with mutations found by the cocircuit route on every
    r-subset, every flip a full rebuild and every child keyed."""
    seed_key = canonical_form(seed)
    nodes = {seed_key: (seed, 0, [])}
    queue = deque([seed_key])
    while queue:
        om, depth, neighbors = nodes[queue.popleft()]
        for basis in itertools.combinations(range(om.n), om.rank):
            if mutation_from_basis(om, basis) is None:
                continue
            child = cocircuits_from_chirotope(om.chirotope.with_basis_flipped(basis))
            key = canonical_form(child)
            neighbors.append(key)
            if key not in nodes:
                nodes[key] = (child, depth + 1, [])
                queue.append(key)
    return {key: (depth, neighbors) for key, (_, depth, neighbors) in nodes.items()}


def test_rank3_n8_closure_matches_full_rebuild():
    # a relabelled, reoriented member of the cyclic class; 135 uniform
    # rank-3 classes on 8 elements (Finschi & Fukuda 2002)
    rng = random.Random(71)
    perm = list(range(8))
    rng.shuffle(perm)
    chi = cyclic_om(3, 8).chirotope.relabel(perm).reorient([1, 4, 6])
    seed = cocircuits_from_chirotope(chi)
    graph = mutation_graph_bfs(seed)
    assert not graph.exhausted_budget
    assert len(graph.nodes) == 135
    mine = {key: (node.depth, node.neighbors) for key, node in graph.nodes.items()}
    assert list(mine.items()) == list(reference_bfs(seed).items())


def seeded_cyclic38():
    # the seed of test_rank3_n8_closure_matches_full_rebuild
    rng = random.Random(71)
    perm = list(range(8))
    rng.shuffle(perm)
    chi = cyclic_om(3, 8).chirotope.relabel(perm).reorient([1, 4, 6])
    return cocircuits_from_chirotope(chi)


def from_labelled(r, n, labelled):
    """The chirotope whose basis with bitmask m is negative iff bit m of
    labelled is set (the memo's keys)."""
    return Chirotope.from_string(r, n, "".join(
        "-" if labelled >> mask_of(b) & 1 else "+"
        for b in itertools.combinations(range(n), r)
    ))


@pytest.mark.parametrize(
    "make_seed, classes, checked",
    [
        (seeded_cyclic38, 135, 759),
        (lambda: cyclic_om(4, 8), 705, 1232),
        (non_euclidean_848, 280, 632),
    ],
    ids=["closure38", "cyclic48", "non_euclidean_848"],
)
def test_implied_memo_entries_match_keys_from_scratch(
    monkeypatch, make_seed, classes, checked
):
    # every memo entry the BFS takes from a key search's transform or
    # automorphisms is the key of that labelled chirotope, keyed afresh;
    # a cut search stops expanding at its budget, so the budgets are
    # set to check at least `checked` entries
    entries = {}
    implied = classify_module._implied_entries

    def recording(*args):
        out = list(implied(*args))
        for labelled, key in out:
            assert entries.setdefault(labelled, key) == key
        return out

    monkeypatch.setattr(classify_module, "_implied_entries", recording)
    seed = make_seed()
    graph = mutation_graph_bfs(seed, max_nodes=classes)
    assert len(graph.nodes) == classes
    assert len(entries) > classes
    assert len(entries) >= checked
    for labelled, key in entries.items():
        chi = from_labelled(seed.rank, seed.n, labelled)
        # the validated chirotope is a flip of a class, keyed from scratch
        assert canonical_form(cocircuits_from_chirotope(chi)) == key


def _bfs_rows(graph):
    return [(key, node.depth, node.neighbors) for key, node in graph.nodes.items()]


def assert_cut_is_prefix(cut, full):
    """cut's nodes and depths are full's first ones, in order; each
    neighbour list is empty or full's list for that key, and the lists
    that are not empty come first."""
    rows, reference = _bfs_rows(cut), _bfs_rows(full)
    assert [row[:2] for row in rows] == [row[:2] for row in reference[: len(rows)]]
    expanded = [bool(neighbors) for _, _, neighbors in rows]
    assert expanded == sorted(expanded, reverse=True)
    assert expanded[0]  # the root is always expanded
    for (_, _, neighbors), (_, _, whole) in zip(rows, reference):
        assert neighbors in ([], whole)
    return expanded


def test_cut_search_is_a_prefix_of_the_closure():
    seed = seeded_cyclic38()
    closure = mutation_graph_bfs(seed)
    assert len(closure.nodes) == 135 and not closure.exhausted_budget
    assert all(node.neighbors for node in closure.nodes.values())
    for budget in (1, 2, 30, 134, 135, 136):
        cut = mutation_graph_bfs(seed, max_nodes=budget)
        k = min(budget, 135)
        assert len(cut.nodes) == k
        assert cut.exhausted_budget == (k < 135)
        expanded = assert_cut_is_prefix(cut, closure)
        assert all(expanded) or k < 135


def test_rank4_cut_search_is_a_prefix_of_a_larger_cut():
    small = mutation_graph_bfs(cyclic_om(4, 8), max_nodes=40)
    large = mutation_graph_bfs(cyclic_om(4, 8), max_nodes=300)
    assert small.exhausted_budget and large.exhausted_budget
    assert len(small.nodes) == 40
    assert_cut_is_prefix(small, large)


def test_closure_r3n8_keys_each_edge_once(monkeypatch):
    searches = []
    search = canonical_module.key_search
    monkeypatch.setattr(
        canonical_module, "key_search", lambda *a, **k: searches.append(1) or search(*a, **k)
    )
    graph = mutation_graph_bfs(cyclic_om(3, 8))
    assert len(graph.nodes) == 135 and not graph.exhausted_budget
    # a memo of the labelled children alone runs 776 key searches here
    assert len(searches) < 776


def test_rank5_n8_closure_is_dual_to_rank3_n8():
    # duality maps uniform rank-5 classes on 8 elements one to one onto
    # the 135 rank-3 classes
    rank5 = mutation_graph_bfs(cyclic_om(5, 8))
    rank3 = mutation_graph_bfs(cyclic_om(3, 8))
    assert not rank5.exhausted_budget and not rank3.exhausted_budget
    assert len(rank5.nodes) == len(rank3.nodes) == 135
    duals = {canonical_form(node.om.dual()) for node in rank5.nodes.values()}
    assert duals == set(rank3.nodes)


def test_mutation_graph_above_nine_elements():
    # keys are exact at every n: the two-flip ball around cyclic_om(3,10)
    # holds 7 classes, the keys of every labelled member within two flips
    seed = cyclic_om(3, 10)
    graph = mutation_graph_bfs(seed, max_depth=2)
    assert not graph.exhausted_budget
    assert [node.depth for node in graph.nodes.values()] == [0, 1, 2, 2, 2, 2, 2]
    ball = [seed]
    for om in [seed] + [flip(seed, cert) for cert in mutations(seed)]:
        for cert in mutations(om):
            chi = om.chirotope.with_basis_flipped(cert.basis)
            ball.append(cocircuits_from_chirotope(chi))
    assert {canonical_form(om) for om in ball} == set(graph.nodes)


def level_by_level_distance(om, radius, max_nodes=4000):
    """The distance search as its own level-by-level loop, every
    neighbour flipped and keyed afresh."""
    if all_programs_euclidean(om):
        return 0
    seen = {canonical_form(om)}
    frontier = [om]
    for depth in range(1, radius + 1):
        nxt = []
        for current in frontier:
            for cert in mutations(current):
                neighbor = flip(current, cert)
                key = canonical_form(neighbor)
                if key in seen:
                    continue
                seen.add(key)
                if all_programs_euclidean(neighbor):
                    return depth
                if len(seen) < max_nodes:
                    nxt.append(neighbor)
        frontier = nxt
        if not frontier:
            break
    return None


def test_flip_distance_matches_level_by_level_search(non_euclidean_om):
    seeds = [cyclic_om(4, 8), non_euclidean_om]
    seeds += [flip(non_euclidean_om, cert) for cert in mutations(non_euclidean_om)]
    for om in seeds:
        for radius in range(4):
            assert flip_distance_to_euclidean(om, radius=radius) == (
                level_by_level_distance(om, radius)
            )


def test_true_hook_result_ends_the_search():
    full = list(mutation_graph_bfs(cyclic_om(3, 6)).nodes)
    for stop in range(1, 4):
        seen = []

        def hook(node):
            seen.append(node.key)
            return len(seen) == stop

        graph = mutation_graph_bfs(cyclic_om(3, 6), node_hook=hook)
        assert seen == list(graph.nodes) == full[:stop]
