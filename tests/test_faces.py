import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omforge.classify import mutation_graph_bfs
from omforge.core import (
    OrientedMatroid,
    cocircuits_from_chirotope,
    om_from_cocircuits,
    om_from_points,
    validate_chirotope,
)
from omforge.corpus import cyclic_om, non_euclidean_848, random_points, w3
from omforge.extensions import LexExtensionSpec, destruction_check, lex_extend
from omforge.faces import (
    adjacent_cocircuits,
    certificate_topes,
    flip,
    flip_basis,
    is_simplicial_tope,
    is_tope,
    min_adjacent_mutations,
    mutation_adjacency,
    mutation_bases,
    mutation_from_basis,
    mutations,
    topes,
)
from omforge.signs import SignVector, mask_of

sv = SignVector.from_string


def test_w3_topes():
    ts = topes(w3())
    # 3 collinear points cut the line of directions into 6 arcs
    assert len(ts) == 6
    assert ts == {sv(s) for s in ("+++", "++-", "+--", "---", "--+", "-++")}


def test_rank2_tope_count():
    for n in (4, 5, 6):
        assert len(topes(cyclic_om(2, n))) == 2 * n


def test_rank3_generic_region_count():
    # 6 generic central planes in R^3: 2*(C(5,0)+C(5,1)+C(5,2)) = 32 regions
    rng = random.Random(12)
    om = om_from_points(random_points(rng, 3, 6))
    assert len(topes(om)) == 32


def test_every_rank2_tope_simplicial():
    om = cyclic_om(2, 5)
    assert all(is_simplicial_tope(om, t) for t in topes(om))


def test_direct_sum_topes_simplicial():
    s = w3().direct_sum(w3())
    ts = topes(s)
    assert len(ts) == 36
    assert all(is_simplicial_tope(s, t) for t in ts)


def test_hexagonal_tope_not_simplicial():
    # 3 generic lines leave a triangle; its antipodal regions in a
    # richer arrangement can pick up more walls.  Build a rank-3
    # arrangement with a hexagonal region: 6 lines tangent to a conic.
    rng = random.Random(21)
    om = om_from_points(random_points(rng, 3, 6))
    counts = {len(adjacent_cocircuits(om, t)) for t in topes(om)}
    assert 3 in counts  # simplicial regions exist (Shannon)
    assert any(c > 3 for c in counts)  # and non-simplicial ones


def test_intervals_in_tope_lattices():
    # every tope has at least rank-many adjacent cocircuits
    for om in (w3(), cyclic_om(3, 6), w3().direct_sum(w3())):
        for t in topes(om):
            assert len(adjacent_cocircuits(om, t)) >= om.rank


def test_w3_mutation_certificate():
    cert = mutation_from_basis(w3(), (0, 1))
    assert cert is not None
    assert cert.tope == sv("+--")
    assert dict(cert.base_cocircuits) == {0: sv("+0-"), 1: sv("0--")}


def test_mutation_nonbasis_rejected():
    om = om_from_points([[1, 1], [2, 2], [1, 3]])  # 0 and 1 parallel
    with pytest.raises(ValueError):
        mutation_from_basis(om, (0, 1))


def test_w3_mutations():
    assert {c.basis for c in mutations(w3())} == {(0, 1), (0, 2), (1, 2)}
    assert mutation_adjacency(w3()) == {0: 2, 1: 2, 2: 2}
    assert min_adjacent_mutations(w3()) == 2


def test_simplicial_tope_characterizations_agree():
    # (i) rank-many adjacent cocircuits, (ii) conformal-basis
    # certificate, (iii) flip validity: all three must coincide
    rng = random.Random(13)
    for om in (cyclic_om(3, 6), om_from_points(random_points(rng, 3, 6)), cyclic_om(4, 7)):
        simplicial = {t for t in topes(om) if len(adjacent_cocircuits(om, t)) == om.rank}
        via_bases = set()
        for b in itertools.combinations(range(om.n), om.rank):
            via_bases |= certificate_topes(om, b)
        assert via_bases == simplicial
        for b in itertools.combinations(range(om.n), om.rank):
            has_cert = mutation_from_basis(om, b) is not None
            chi = om.chirotope.with_basis_flipped(b)
            assert has_cert == validate_chirotope(chi).ok


def test_general_position_element_in_mutation():
    # a cocircuit of a mutation vanishing at a general-position element
    # forces that element into the basis
    om = cyclic_om(4, 7)
    for cert in mutations(om):
        for f in range(om.n):
            if om.is_general_position(f) and any(
                x[f] == 0 for x in cert.cocircuit_vectors()
            ):
                assert f in cert.basis


def test_mutations_share_at_most_one_cocircuit():
    om = cyclic_om(4, 8)
    certs = mutations(om)
    for c1, c2 in itertools.combinations(certs, 2):
        s1 = {frozenset((x, -x)) for x in c1.cocircuit_vectors()}
        s2 = {frozenset((x, -x)) for x in c2.cocircuit_vectors()}
        shared = s1 & s2
        assert len(shared) <= 1
        if shared:
            assert len(set(c1.basis) ^ set(c2.basis)) == 2


def test_cocircuit_adjacent_to_at_most_two_mutations():
    om = cyclic_om(4, 8)
    hits = {}
    for cert in mutations(om):
        for x in cert.cocircuit_vectors():
            key = frozenset((x, -x))
            hits[key] = hits.get(key, 0) + 1
    assert all(v <= 2 for v in hits.values())


def test_flip_involution_and_single_sign():
    om = cyclic_om(4, 8)
    cert = mutations(om)[0]
    flipped = flip(om, cert)
    assert flipped.chirotope.basis_sign(cert.basis) == -om.chirotope.basis_sign(
        cert.basis
    )
    diffs = sum(
        1
        for b in itertools.combinations(range(8), 4)
        if flipped.chirotope.basis_sign(b) != om.chirotope.basis_sign(b)
    )
    assert diffs == 1
    back = flip(flipped, mutation_from_basis(flipped, cert.basis))
    assert back == om


def test_w3_flip():
    flipped = flip_basis(w3(), (0, 1))
    assert flipped.chirotope.basis_sign((0, 1)) == -1
    assert validate_chirotope(flipped.chirotope).ok


def test_flip_changes_only_tope_adjacent_cocircuits():
    om = cyclic_om(4, 8)
    cert = mutations(om)[2]
    flipped = flip(om, cert)
    changed = om.cocircuits ^ flipped.cocircuits
    tope_pair_adjacent = set()
    for x in om.cocircuits:
        if x.leq(cert.tope) or x.leq(-cert.tope):
            tope_pair_adjacent.add(x)
    assert {x for x in changed if x in om.cocircuits} == tope_pair_adjacent


def test_stale_certificate_rejected():
    om = cyclic_om(4, 8)
    cert = mutations(om)[0]
    other = flip(om, mutations(om)[1])
    with pytest.raises(ValueError):
        flip(other, cert)


def test_realizable_rank3_at_least_n_mutations():
    rng = random.Random(14)
    om = om_from_points(random_points(rng, 3, 6))
    assert len(mutations(om)) >= om.n
    adjacency = mutation_adjacency(om)
    assert sorted(adjacency) == list(range(om.n))
    assert all(count >= 3 for count in adjacency.values())


def test_cyclic_c48_shannon_tight():
    om = cyclic_om(4, 8)
    assert mutation_adjacency(om) == dict.fromkeys(range(8), 4)
    assert min_adjacent_mutations(om) == 4


# -- sign-test flip vs the full rebuild -----------------------------------------

def full_rebuild(om, cert):
    return cocircuits_from_chirotope(om.chirotope.with_basis_flipped(cert.basis))


def assert_flips_match_full_rebuild(om):
    for cert in mutations(om):
        fast, full = flip(om, cert), full_rebuild(om, cert)
        assert fast.chirotope == full.chirotope
        assert fast.cocircuits == full.cocircuits


def test_local_check_equals_full_check_after_one_sign_change():
    # from a valid parent, the sign test on the changed basis decides
    # validity; most single-basis changes here are not mutations
    rng = random.Random(15)
    for om in (cyclic_om(3, 8), cyclic_om(4, 8), om_from_points(random_points(rng, 4, 7))):
        for b in itertools.combinations(range(om.n), om.rank):
            full = validate_chirotope(om.chirotope.with_basis_flipped(b)).ok
            assert om.chirotope.is_mutation(mask_of(b)) == full


@pytest.mark.parametrize(
    "make_seed",
    [lambda: cyclic_om(3, 8), lambda: cyclic_om(4, 8), non_euclidean_848],
    ids=["cyclic38", "cyclic48", "non_euclidean_848"],
)
def test_incremental_flip_matches_full_rebuild_on_bfs_classes(make_seed):
    graph = mutation_graph_bfs(make_seed(), max_nodes=40)
    assert len(graph.nodes) == 40
    for node in graph.nodes.values():
        assert_flips_match_full_rebuild(node.om)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([(3, 5), (3, 7), (4, 6), (4, 8)]))
def test_incremental_flip_matches_full_rebuild_realizable(seed, shape):
    r, n = shape
    om = om_from_points(random_points(random.Random(seed), r, n))
    assert_flips_match_full_rebuild(om)
    # a second step starts from an incrementally flipped parent
    assert_flips_match_full_rebuild(flip(om, mutations(om)[0]))


# BFS seeds and class budgets whose classes the fast routes are checked on
BFS_CLASSES = pytest.mark.parametrize(
    "make_seed, classes",
    [
        (lambda: cyclic_om(3, 8), 135),
        (lambda: cyclic_om(4, 8), 60),
        (non_euclidean_848, 40),
        (lambda: cyclic_om(5, 9), 30),
    ],
    ids=["closure38", "cyclic48", "non_euclidean_848", "cyclic59"],
)


# -- sign-test mutation bases vs the cocircuit route ------------------------------

def assert_bases_match_cocircuit_route(om):
    via_cocircuits = tuple(
        b for b in itertools.combinations(range(om.n), om.rank)
        if mutation_from_basis(om, b) is not None
    )
    assert mutation_bases(om) == via_cocircuits
    assert tuple(cert.basis for cert in mutations(om)) == via_cocircuits


@BFS_CLASSES
def test_mutation_bases_match_cocircuit_route_on_bfs_classes(make_seed, classes):
    graph = mutation_graph_bfs(make_seed(), max_nodes=classes)
    assert len(graph.nodes) == classes
    for node in graph.nodes.values():
        assert_bases_match_cocircuit_route(node.om)


def test_mutation_bases_match_cocircuit_route_realizable():
    rng = random.Random(16)
    for r, n in ((1, 4), (2, 6), (3, 3), (4, 5), (5, 7)):
        for _ in range(3):
            assert_bases_match_cocircuit_route(om_from_points(random_points(rng, r, n)))


# -- inherited mutation bases vs the full sign test ------------------------------

def full_sign_test_bases(om):
    """Slow reference: the sign test on every basis of a fresh copy."""
    return mutation_bases(OrientedMatroid(om.chirotope))


@BFS_CLASSES
def test_inherited_mutation_bases_match_full_sign_test_on_bfs_classes(make_seed, classes):
    # every class after the seed inherits from its BFS parent, most of
    # them from a parent whose own bases were inherited
    graph = mutation_graph_bfs(make_seed(), max_nodes=classes)
    assert len(graph.nodes) == classes
    for node in graph.nodes.values():
        assert node.om._mutation_bases == full_sign_test_bases(node.om)


def test_flip_inherits_bases_only_from_a_parent_that_has_them():
    om = cyclic_om(4, 8)
    basis = next(
        b for b in itertools.combinations(range(8), 4)
        if om.chirotope.is_mutation(mask_of(b))
    )
    cold = flip_basis(om, basis)
    assert om._mutation_bases is None and cold._mutation_bases is None
    assert mutation_bases(cold) == full_sign_test_bases(cold)
    # a chain of flips, each child inheriting from an inherited tuple
    mutation_bases(om)
    for step in range(6):
        child = flip_basis(om, basis)
        assert child._mutation_bases is not None
        assert child._mutation_bases == full_sign_test_bases(child)
        if step == 0:
            assert child._mutation_bases == cold._mutation_bases
        om, basis = child, child._mutation_bases[step % len(child._mutation_bases)]


# -- the tope walk vs closing the covectors under composition -------------------

def closure_topes(om):
    """Slow reference: every covector built by composing each frontier
    vector with each cocircuit; the topes are those on every non-loop."""
    cocircuits = om.sorted_cocircuits()
    nonloop = om.full_mask & ~om.closure_mask(0)
    frontier = set(cocircuits)
    seen = set(frontier)
    full = []
    while frontier:
        nxt = set()
        for v in frontier:
            if v.support_mask & nonloop == nonloop:
                full.append(v)
                continue
            for x in cocircuits:
                if x.support_mask & ~v.support_mask:
                    w = v.compose(x)
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
        frontier = nxt
    return frozenset(full)


def uniform_tope_count(r, n):
    return 2 * sum(math.comb(n - 1, i) for i in range(r))


def parallel_and_loop_columns():
    # 1 and 2 parallel to 0, 3 antiparallel, 4 a loop, 7 antiparallel to 6
    return om_from_points(
        [[1, 0, 1], [2, 0, 2], [3, 0, 3], [-1, 0, -1], [0, 0, 0],
         [0, 1, 0], [1, 1, 3], [-1, -1, -3], [2, -1, 1]]
    )


def relabelled_848():
    rng = random.Random(17)
    perm = list(range(8))
    rng.shuffle(perm)
    om = cocircuits_from_chirotope(non_euclidean_848().chirotope.relabel(perm))
    return om.reorient([e for e in range(8) if rng.random() < 0.5])


def destruction_extension_c48():
    # the lexicographic extension whose topes `destruction_check` walks
    om = cyclic_om(4, 8)
    cert = mutations(om)[0]
    return destruction_check(om, cert, cert.basis[0], 5).extension


def short_lex_extension_c48():
    # a spec shorter than the rank: the new element is not in general
    # position, so the extension is not uniform
    ext = lex_extend(cyclic_om(4, 8), LexExtensionSpec(((2, 1), (5, -1), (0, 1))))
    assert not ext.is_uniform()
    return ext


def rank1_with_loop():
    return om_from_points([[3], [-2], [0], [5], [-1]])


@pytest.mark.parametrize(
    "make_om",
    [
        rank1_with_loop,
        lambda: cyclic_om(1, 3),
        lambda: cyclic_om(3, 3),
        lambda: om_from_points(random_points(random.Random(18), 4, 4)),
        parallel_and_loop_columns,
        lambda: w3().direct_sum(w3()),
        lambda: cyclic_om(4, 8).minor(delete=[1], contract=[6]),
        destruction_extension_c48,
        short_lex_extension_c48,
        relabelled_848,
    ],
    ids=[
        "rank1-loop", "rank1", "r=n", "r=n-random", "parallel-loop",
        "w3+w3", "c48-minor", "c48-destruction-extension",
        "c48-short-lex-extension", "848-relabelled",
    ],
)
def test_tope_walk_matches_closure(make_om):
    om = make_om()
    assert topes(om) == closure_topes(om)


def test_tope_walk_matches_closure_on_bfs_classes():
    graph = mutation_graph_bfs(cyclic_om(4, 8), max_nodes=40)
    assert len(graph.nodes) == 40
    for node in graph.nodes.values():
        assert topes(node.om) == closure_topes(node.om)


def test_tope_walk_matches_closure_realizable():
    rng = random.Random(19)
    for r, n in ((3, 7), (3, 9), (4, 8), (5, 8)):
        # generic, then with coordinates in {-1, 0, 1}: non-uniform, and
        # at (3, 9) with loops and parallel elements
        for span, uniform in ((9, True), (1, False)):
            om = om_from_points(random_points(rng, r, n, span=span, uniform=uniform))
            assert topes(om) == closure_topes(om)


def test_rank0_has_the_zero_tope():
    om = om_from_cocircuits(3, 0, ())
    assert topes(om) == {sv("000")}
    assert is_tope(om, sv("000"))
    assert is_simplicial_tope(om, sv("000"))


@pytest.mark.parametrize(
    "make_om",
    [
        lambda: cyclic_om(3, 5),
        lambda: cyclic_om(4, 6),
        lambda: cyclic_om(1, 3),
        lambda: cyclic_om(2, 4).direct_sum(cyclic_om(1, 2)),
        parallel_and_loop_columns,
    ],
    ids=["c35", "c46", "c13", "c24+c12", "parallel-loop"],
)
def test_is_tope_agrees_with_topes_on_every_sign_vector(make_om):
    om = make_om()
    ts = topes(om)
    for signs in itertools.product((1, 0, -1), repeat=om.n):
        vec = SignVector.from_signs(signs)
        assert is_tope(om, vec) == (vec in ts)
    assert not is_tope(om, SignVector.zero(om.n + 1))


def test_uniform_tope_count_realizable():
    rng = random.Random(20)
    for r, n in ((1, 4), (2, 6), (3, 7), (3, 9), (4, 8), (5, 8), (5, 9)):
        om = om_from_points(random_points(rng, r, n))
        assert len(topes(om)) == uniform_tope_count(r, n)


def test_uniform_tope_count_on_non_realizable_classes():
    graph = mutation_graph_bfs(non_euclidean_848(), max_nodes=30)
    assert len(graph.nodes) == 30
    for node in graph.nodes.values():
        assert len(topes(node.om)) == uniform_tope_count(4, 8)
