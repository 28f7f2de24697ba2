import itertools
import random

import pytest
from cocircuit_oracles import coloops_of, loops_of

import omforge.programs as programs_module
from omforge.classify import _verify_lex_witness, mutation_graph_bfs
from omforge.core import OrientedMatroid, om_from_cocircuits, om_from_points
from omforge.corpus import cyclic_om, non_euclidean_848, random_points, w3
from omforge.extensions import (
    LexExtensionSpec,
    lex_extend,
    mandel_from_euclidean_mutant,
)
from omforge.faces import flip_basis, mutation_bases, mutations
from omforge.programs import (
    DirectedCycleWitness,
    ElementNotInSeparator,
    NonComodularPair,
    Program,
    _verdicts,
    all_programs_euclidean,
    analyze_cycle,
    cocircuit_graph,
    edge_direction,
    eliminate,
    find_chords,
    has_euclidean_program,
    is_euclidean,
    is_totally_non_euclidean,
    program_verdicts,
    reduce_cycle_chordless,
    valid_programs,
    verify_witness,
    very_strong_components,
)
from omforge.signs import MINUS, PLUS, SignVector, mask_of

sv = SignVector.from_string


# -- elimination ---------------------------------------------------------------

def test_eliminate_w3():
    z = eliminate(w3(), sv("-0+"), sv("++0"), 0)
    assert z == sv("0++")


def test_eliminate_antipodal_rejected():
    x = sv("+0-")
    with pytest.raises(NonComodularPair):
        eliminate(w3(), x, -x, 0)


def test_eliminate_needs_separator():
    with pytest.raises(ElementNotInSeparator):
        eliminate(w3(), sv("+0-"), sv("++0"), 1)


def test_eliminate_unique_on_comodular_pairs():
    om = cyclic_om(4, 7)
    coc = om.sorted_cocircuits()
    checked = 0
    for i in range(len(coc)):
        for j in range(i + 1, len(coc)):
            x, y = coc[i], coc[j]
            sep = x.separation(y)
            if not sep:
                continue
            u = x.zero_mask & y.zero_mask
            if om.subset_rank(u) != om.rank - 2:
                continue
            e = min(sep)
            z = eliminate(om, x, y, e)
            assert z[e] == 0
            assert (z.zero_mask & u) == u
            checked += 1
            if checked > 200:
                return


# -- edge direction --------------------------------------------------------------

def test_w3_edge_direction():
    p = Program(w3(), 0, 1)
    assert edge_direction(p, sv("+0-"), sv("++0")) == 1
    assert edge_direction(p, sv("++0"), sv("+0-")) == -1


def test_w3_graph():
    p = Program(w3(), 0, 1)
    g = cocircuit_graph(p)
    assert len(g.vertices) == 2
    assert len(g.edges) == 1
    assert g.directions == (1,)


def test_uniform_vertex_count():
    # vertices are the cocircuits with g = +: of 112 total, 2*C(7,2)
    # vanish at g; half the rest are positive there
    p = Program(cyclic_om(4, 8), 0, 1)
    g = cocircuit_graph(p)
    assert len(g.vertices) == (112 - 2 * 21) // 2 == 35


def test_gf_plus_nonempty():
    rng = random.Random(41)
    om = om_from_points(random_points(rng, 3, 6))
    for g, f in valid_programs(om)[:10]:
        graph = cocircuit_graph(Program(om, g, f))
        assert graph.gf_plus() or graph.gf_minus()


def test_program_validity():
    with pytest.raises(ValueError):
        Program(w3(), 0, 0)
    with pytest.raises(ValueError):
        Program(w3(), 0, 9)
    # a coloop target is rejected
    om = w3().direct_sum(om_from_points([[1]]))
    with pytest.raises(ValueError):
        Program(om, 0, 3)


# -- Euclideaness ----------------------------------------------------------------

def test_realizable_programs_euclidean():
    rng = random.Random(42)
    for _ in range(5):
        om = om_from_points(random_points(rng, rng.choice((3, 4)), 7, uniform=False))
        assert all_programs_euclidean(om)


def test_rank3_always_euclidean():
    om = cyclic_om(3, 6)
    assert all_programs_euclidean(om)


def test_euclidean_components_singletons():
    p = Program(cyclic_om(4, 8), 0, 1)
    comps = very_strong_components(p)
    assert all(isolated for _, isolated in comps)


def test_totally_non_euclidean_false_on_realizable(non_euclidean_om):
    assert not is_totally_non_euclidean(cyclic_om(4, 8))
    assert not is_totally_non_euclidean(non_euclidean_om)


def test_non_euclidean_witness(non_euclidean_om):
    om = non_euclidean_om
    verdicts = program_verdicts(om)
    bad = [(g, f) for (g, f), ok in verdicts.items() if not ok]
    assert bad
    g, f = bad[0]
    p = Program(om, g, f)
    verdict = is_euclidean(p)
    assert not verdict.euclidean
    w = verdict.witness
    assert len(w.vertices) >= 3
    assert verify_witness(p, w)
    comps = very_strong_components(p)
    big = [vs for vs, isolated in comps if not isolated]
    assert big and all(len(vs) >= 3 for vs in big)


def test_exchange_cross_check(non_euclidean_om):
    # verdict of (om,g,f) vs (om,f,g): logged as a cross-check
    om = non_euclidean_om
    verdicts = program_verdicts(om)
    for (g, f), ok in verdicts.items():
        assert verdicts[(f, g)] == ok


def test_chordless_reduction(non_euclidean_om):
    om = non_euclidean_om
    verdicts = program_verdicts(om)
    g, f = next((gf for gf, ok in verdicts.items() if not ok))
    p = Program(om, g, f)
    w = is_euclidean(p).witness
    reduced = reduce_cycle_chordless(p, w)
    assert verify_witness(p, reduced)
    directed, undirected = find_chords(p, reduced)
    assert not directed
    assert not undirected
    # chordless input is a fixed point
    again = reduce_cycle_chordless(p, reduced)
    assert again.vertices == reduced.vertices


def test_chordless_reduction_golden(non_euclidean_om):
    p = Program(non_euclidean_om, 0, 1)
    shortest = (
        "++0--0-0", "++0-00--", "+++000--", "+++00+0-", "+++0-+00", "++0--+00",
    )
    w = is_euclidean(p).witness
    assert reduce_cycle_chordless(p, w).vertices == tuple(sv(s) for s in shortest)
    # a longer directed cycle of the same program, with chords both ways:
    # the reduction takes the first directed chord over ordered pairs,
    # i-major, each round
    long = [
        sv(s) for s in (
            "++---000", "++0--0-0", "++0-00--", "++000---", "+++000--",
            "+++00+0-", "++++0+00", "+++0-+00", "++0--+00",
        )
    ]
    dirs = [eliminate(p.om, -x, y, 0) for x, y in zip(long, long[1:] + long[:1])]
    w = DirectedCycleWitness(tuple(long), tuple(dirs))
    assert verify_witness(p, w)
    assert find_chords(p, w) == ([(1, 8, -1), (2, 4, 1), (5, 7, 1)], [])
    reduced = reduce_cycle_chordless(p, w)
    assert reduced.vertices == tuple(
        sv(s) for s in (
            "+++0-+00", "++0--+00", "++0--0-0", "++0-00--", "+++000--", "+++00+0-",
        )
    )
    assert verify_witness(p, reduced)


def test_cycle_report(non_euclidean_om):
    om = non_euclidean_om
    verdicts = program_verdicts(om)
    g, f = next(gf for gf, ok in verdicts.items() if not ok)
    p = Program(om, g, f)
    w = is_euclidean(p).witness
    rep = analyze_cycle(p, w)
    # a strictly directed cycle has constant g = + and f nonzero
    assert rep.per_element[g].values == (1,)
    assert 0 not in rep.per_element[f].values
    assert not rep.edges_on_single_simplicial_tope
    assert not rep.any_confining_tope_fully_used


def test_mutation_cocircuits_avoid_cycles(non_euclidean_om):
    # mutations meeting {f,g} keep their cocircuits out of directed cycles
    om = non_euclidean_om
    verdicts = program_verdicts(om)
    g, f = next(gf for gf, ok in verdicts.items() if not ok)
    p = Program(om, g, f)
    cycle_vertices = set()
    for vs, isolated in very_strong_components(p):
        if not isolated:
            cycle_vertices.update(vs)
    for cert in mutations(om):
        if g in cert.basis or f in cert.basis:
            for x in cert.cocircuit_vectors():
                assert x not in cycle_vertices and -x not in cycle_vertices


def test_euclidean_verdicts_empty_report():
    p = Program(cyclic_om(3, 6), 0, 1)
    verdict = is_euclidean(p)
    assert verdict.euclidean and verdict.witness is None


# -- sign-route verdicts vs the cocircuit graph ----------------------------------

def assert_verdicts_match_cocircuit_graph(om):
    """The public verdict functions agree with `is_euclidean` on every
    program, which builds the cocircuit graph, and the programs are the
    pairs (g, f) of a non-loop g and a non-coloop f by the cocircuit
    route."""
    loops, coloops = loops_of(om), coloops_of(om)
    programs = [
        (g, f) for g in range(om.n) for f in range(om.n)
        if g != f and g not in loops and f not in coloops
    ]
    verdicts = program_verdicts(om)
    assert list(verdicts) == programs
    assert verdicts == {
        (g, f): is_euclidean(Program(om, g, f)).euclidean for g, f in programs
    }
    assert all_programs_euclidean(om) == all(verdicts.values())
    assert has_euclidean_program(om) == any(verdicts.values())
    return verdicts


BFS_SETS = pytest.mark.parametrize(
    "make_seed, classes",
    [
        (lambda: cyclic_om(3, 8), 135),
        (lambda: cyclic_om(4, 8), 60),
        (non_euclidean_848, 40),
        (lambda: cyclic_om(5, 9), 30),
    ],
    ids=["closure38", "cyclic48", "non_euclidean_848", "cyclic59"],
)


@BFS_SETS
def test_sign_verdicts_match_cocircuit_graph_on_bfs_classes(make_seed, classes):
    graph = mutation_graph_bfs(make_seed(), max_nodes=classes)
    assert len(graph.nodes) == classes
    non_euclidean = 0
    for node in graph.nodes.values():
        verdicts = assert_verdicts_match_cocircuit_graph(node.om)
        non_euclidean += not all(verdicts.values())
    if make_seed is non_euclidean_848:
        assert non_euclidean > 0


def test_sign_verdicts_match_cocircuit_graph_realizable():
    rng = random.Random(17)
    for r, n in ((1, 4), (2, 6), (3, 3), (4, 5), (5, 7)):
        for _ in range(3):
            om = om_from_points(random_points(rng, r, n))
            verdicts = assert_verdicts_match_cocircuit_graph(om)
            assert all(verdicts.values())
            assert len(verdicts) == (0 if r == n else n * (n - 1))


def test_euclidean_campaign_classes_derive_no_cocircuits():
    # verdicts and loops/coloops of uniform classes read the chirotope,
    # so a campaign-style search builds neither cocircuits nor graphs
    verdicts = []
    graph = mutation_graph_bfs(
        cyclic_om(4, 8),
        max_nodes=30,
        node_hook=lambda node: verdicts.append(all_programs_euclidean(node.om)),
    )
    assert len(graph.nodes) == len(verdicts) == 30
    assert all(verdicts)
    for node in graph.nodes.values():
        assert node.om._cocircuits is None
        assert not node.om._graph_cache


# -- extension programs by signs, and the verdict cache ---------------------------

def test_sign_verdicts_match_is_euclidean_on_lex_extensions():
    # the programs (n, f) that _verify_lex_witness decides: on the
    # extension by the spec mandel_witness_search tries first, and by
    # seeded specs like those of its brute search
    rng = random.Random(23)
    instances = [
        om_from_points(random_points(rng, r, n, uniform=True))
        for r, n in ((3, 6), (3, 7), (4, 7), (4, 8))
    ]
    instances.append(non_euclidean_848())
    seen = set()
    for om in instances:
        specs = [LexExtensionSpec(tuple((e, PLUS) for e in range(om.rank)))]
        for _ in range(8):
            elems = rng.sample(range(om.n), om.rank)
            signs = [rng.choice((PLUS, MINUS)) for _ in elems]
            specs.append(LexExtensionSpec(tuple(zip(elems, signs))))
        for spec in specs:
            ext = lex_extend(om, spec)
            assert ext._uniform_chirotope()  # so _verdicts reads signs
            programs = [(om.n, f) for f in range(om.n)]
            got = dict(_verdicts(ext, programs))
            assert list(got) == programs
            assert got == {
                (g, f): is_euclidean(Program(ext, g, f)).euclidean
                for g, f in programs
            }
            assert _verify_lex_witness(om, spec) == all(got.values())
            seen.update(got.values())
    assert seen == {True, False}


# -- the mirror lemma: (g, f) and (f, g) have one verdict --------------------------

def mirror_verdicts(om):
    """The g < f and the g > f programs of om, decided by two `_verdicts`
    calls, so that no verdict is answered from the other's memo; each
    program's verdict equals its mirror's.  Returns the g < f verdicts."""
    programs = valid_programs(om)
    lower = dict(_verdicts(om, [(g, f) for g, f in programs if g < f]))
    upper = dict(_verdicts(om, [(g, f) for g, f in programs if g > f]))
    assert upper == {(f, g): ok for (g, f), ok in lower.items()}
    return lower


@BFS_SETS
def test_mirror_verdicts_agree_on_bfs_classes(make_seed, classes):
    graph = mutation_graph_bfs(make_seed(), max_nodes=classes)
    assert len(graph.nodes) == classes
    seen = set()
    for node in graph.nodes.values():
        assert node.om._uniform_chirotope()  # so _verdicts reads signs
        seen.update(mirror_verdicts(node.om).values())
    assert seen == ({True, False} if make_seed is non_euclidean_848 else {True})


def test_mirror_verdicts_agree_realizable():
    rng = random.Random(29)
    for r, n in ((2, 5), (2, 7), (3, 7), (4, 8), (5, 8)):
        for _ in range(3):
            om = om_from_points(random_points(rng, r, n, uniform=True))
            assert om._uniform_chirotope()
            verdicts = mirror_verdicts(om)
            assert len(verdicts) == n * (n - 1) // 2 and all(verdicts.values())


def test_mirror_verdicts_agree_on_lex_extensions(non_euclidean_om):
    rng = random.Random(31)
    om = non_euclidean_om
    seen = set()
    for _ in range(8):
        elems = rng.sample(range(om.n), om.rank)
        signs = [rng.choice((PLUS, MINUS)) for _ in elems]
        ext = lex_extend(om, LexExtensionSpec(tuple(zip(elems, signs))))
        assert ext._uniform_chirotope()
        seen.update(mirror_verdicts(ext).values())
    assert seen == {True, False}


def test_mirrors_of_non_euclidean_programs_by_the_cocircuit_graph(non_euclidean_om):
    om = non_euclidean_om
    bad = [pair for pair, ok in program_verdicts(om).items() if not ok]
    assert bad and all((f, g) in bad for g, f in bad)
    for g, f in bad:
        p = Program(om, f, g)
        verdict = is_euclidean(p)
        assert not verdict.euclidean and verify_witness(p, verdict.witness)


def test_each_unordered_pair_is_sorted_once(count_calls):
    sorts = count_calls(programs_module, "_acyclic")
    assert all_programs_euclidean(cyclic_om(4, 8))
    assert len(sorts) == 28  # C(8, 2), not the 56 programs
    om = non_euclidean_848()
    programs = valid_programs(om)
    for k in (0, 1, 7, 8, 10, 30):
        sorts.clear()
        assert len(list(itertools.islice(_verdicts(om, programs), k))) == k
        assert len(sorts) <= k


def test_mandel_pipeline_builds_one_path_table(count_calls):
    tables = count_calls(programs_module, "_paths_at")
    result = mandel_from_euclidean_mutant(
        cyclic_om(4, 8), (0, 1, 2, 3), 5, check_hypotheses=False
    )
    assert len(result.program_verdicts) == 8 and result.ok
    assert len(tables) == 1


# -- the flip rule: a flip child inherits the programs split by the basis -------

def assert_flip_children_inherit(om, count_calls):
    """For every mutation basis of om, once om has decided its programs:
    the flip child's non-Euclidean programs equal those decided from
    scratch on a copy that records no parent, and the child sorts only
    the pairs inside the basis or outside it.  Returns the children's
    non-Euclidean programs with one element in the basis, and those with
    none or both."""
    r, n = om.rank, om.n
    program_verdicts(om)
    sorts = count_calls(programs_module, "_acyclic")
    split, unsplit = set(), set()
    for basis in mutation_bases(om):
        child = flip_basis(om, basis)
        assert child._flipped_from == (mask_of(basis), om)
        sorts.clear()
        got = programs_module._non_euclidean_programs(child)
        assert len(sorts) == (r * (r - 1) + (n - r) * (n - r - 1)) // 2
        assert child._flipped_from is None  # the parent is let go
        scratch = OrientedMatroid(child.chirotope)
        assert scratch._flipped_from is None
        assert got == programs_module._non_euclidean_programs(scratch)
        m = mask_of(basis)
        for g, f in got:
            (split if (m >> g ^ m >> f) & 1 else unsplit).add((basis, g, f))
    return split, unsplit


def test_flip_children_inherit_verdicts_on_bfs_classes(count_calls):
    graph = mutation_graph_bfs(non_euclidean_848(), max_nodes=20)
    assert len(graph.nodes) == 20
    inherited, decided = set(), set()
    for node in graph.nodes.values():
        split, unsplit = assert_flip_children_inherit(node.om, count_calls)
        inherited |= split
        decided |= unsplit
    # the classes are of both kinds, and the children's non-Euclidean
    # programs fall on both sides of the rule
    kinds = {all_programs_euclidean(node.om) for node in graph.nodes.values()}
    assert kinds == {True, False}
    assert inherited and decided


def test_flip_children_inherit_verdicts_on_a_lex_extension(count_calls):
    om = non_euclidean_848()
    ext = lex_extend(om, LexExtensionSpec(((0, PLUS), (3, MINUS), (5, PLUS), (6, PLUS))))
    assert ext.n == 9 and ext._uniform_chirotope()
    split, _ = assert_flip_children_inherit(ext, count_calls)
    assert split and not all_programs_euclidean(ext)


@pytest.mark.parametrize(
    "make_seed, sorts",
    [(lambda: cyclic_om(4, 8), 12), (lambda: cyclic_om(3, 8), 13)],
    ids=["rank4", "rank3"],
)
def test_flip_child_of_a_decided_parent_sorts_the_unsplit_pairs(
    count_calls, make_seed, sorts
):
    # C(r,2) + C(n-r,2) of the 28 pairs; an undecided parent leaves the
    # child all 28, and the child does not decide the parent
    acyclic = count_calls(programs_module, "_acyclic")
    om = make_seed()
    basis = mutation_bases(om)[-1]
    all_programs_euclidean(om)
    acyclic.clear()
    all_programs_euclidean(flip_basis(om, basis))
    assert len(acyclic) == sorts
    om = make_seed()
    child = flip_basis(om, basis)
    acyclic.clear()
    all_programs_euclidean(child)
    assert len(acyclic) == 28
    assert om._non_euclidean is None and child._flipped_from is None


def _flip_child_of_decided_848():
    # the flip at (0, 4, 5, 6) keeps 848's 8 non-Euclidean programs, all
    # split by the basis, so all 8 are inherited
    om = non_euclidean_848()
    program_verdicts(om)
    return flip_basis(om, (0, 4, 5, 6))


CACHED_CALLS = (program_verdicts, all_programs_euclidean, has_euclidean_program)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic_om(4, 8),
        non_euclidean_848,
        lambda: om_from_cocircuits(8, 4, non_euclidean_848().cocircuits),
        lambda: w3().direct_sum(w3()),
        lambda: cyclic_om(1, 3),
        lambda: cyclic_om(3, 3),
        _flip_child_of_decided_848,
    ],
    ids=["cyclic48", "non_euclidean_848", "848_cocircuits_only", "w3_plus_w3",
         "rank1", "no_programs", "flip_child"],
)
def test_verdict_cache_any_call_order(make):
    # each call on a fresh copy is the reference; on one copy, the three
    # calls in any order give the same answers, and the verdicts are
    # decided by the first call only
    reference = [call(make()) for call in CACHED_CALLS]
    assert reference[1] == all(reference[0].values())
    assert reference[2] == any(reference[0].values())
    for order in itertools.permutations(range(len(CACHED_CALLS))):
        om = make()
        got = [None] * len(CACHED_CALLS)
        for k, i in enumerate(order):
            got[i] = CACHED_CALLS[i](om)
            if k == 0:
                decided = om._non_euclidean
        assert got == reference
        assert om._non_euclidean is decided
        # the returned map is the caller's own
        for pair in got[0]:
            got[0][pair] = not got[0][pair]
        assert program_verdicts(om) == reference[0]
