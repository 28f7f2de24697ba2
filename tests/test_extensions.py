import math
import random

import pytest
from cocircuit_oracles import lex_localization, minor_cocircuits, special_position

from omforge import core
from omforge.classify import _verify_lex_witness, mutation_graph_bfs
from omforge.core import (
    om_from_points,
    validate_chirotope,
    validate_cocircuit_axioms,
)
from omforge.corpus import cyclic_om, non_euclidean_848, random_points, w3
from omforge.extensions import (
    ExtensionError,
    LexExtensionSpec,
    PerturbationError,
    _mandel_pipeline_results,
    _swapped,
    corresponding_cocircuit,
    creation_check,
    destruction_check,
    extend_by_localization,
    flip_lex_commute_check,
    lex_extend,
    mandel_from_euclidean_mutant,
    orient_tope_positive,
    pair_kind,
    perturb_extension,
    swap_isomorphism_check,
)
from omforge.faces import flip, mutation_from_basis, mutations, topes
from omforge.programs import Program, is_euclidean
from omforge.signs import MINUS, PLUS, SignVector

sv = SignVector.from_string


def spec_of(*terms):
    return LexExtensionSpec(tuple(terms))


# -- lex_extend ----------------------------------------------------------------

def test_w3_extension_cocircuits():
    ext = lex_extend(w3(), spec_of((0, PLUS), (1, PLUS)))
    assert ext.n == 4 and ext.rank == 2
    assert len(ext.cocircuits) == 8
    expected = {
        sv("+--0"), sv("-++0"),          # the new pair
        sv("+0-+"), sv("-0+-"),          # old cocircuits with the new sign
        sv("0---"), sv("0+++"),
        sv("++0+"), sv("--0-"),
    }
    assert set(ext.cocircuits) == expected


def _extension_inputs(seed):
    """Seeded realizable inputs of ranks 2-5, then the first BFS classes
    from non_euclidean_848 and from cyclic_om(4,8), which include
    non-realizable ones."""
    rng = random.Random(seed)
    oms = []
    for r in (2, 3, 4, 5):
        for _ in range(3):
            oms.append(om_from_points(random_points(rng, r, r + rng.randint(1, 3))))
    for seed_om in (non_euclidean_848(), cyclic_om(4, 8)):
        graph = mutation_graph_bfs(seed_om, max_nodes=12)
        oms.extend(node.om for node in graph.nodes.values())
    return rng, oms


def _sampled_specs(rng, om, count=3):
    """Full-length specs with sampled heads, elements and sign patterns."""
    for _ in range(count):
        elems = rng.sample(range(om.n), om.rank)
        signs = [rng.choice((PLUS, MINUS)) for _ in elems]
        yield LexExtensionSpec(tuple(zip(elems, signs)))


def test_routes_agree():
    # the chirotope route against the localization route, its oracle,
    # whose cocircuit set gives back the same chirotope up to sign
    rng, oms = _extension_inputs(31)
    for om in oms:
        for spec in _sampled_specs(rng, om):
            ext = lex_extend(om, spec)
            oracle = extend_by_localization(om, lex_localization(om, spec))
            assert ext.cocircuits == oracle.cocircuits
            assert ext == oracle


def test_routes_agree_on_short_specs_and_special_position():
    # shorter specs put the new element on a flat, and inputs with
    # repeated, collinear and zero points are not uniform: the chirotope
    # route still writes a valid chirotope, and agrees with the oracle
    rng = random.Random(47)
    oms = [om_from_points(random_points(rng, r, r + 3)) for r in (2, 3, 4)]
    oms += [special_position(rng, r, n) for r, n in ((2, 6), (3, 7), (4, 8))]
    shapes = set()
    for om in oms:
        for k in range(1, om.rank + 1):
            elems = next(
                e for e in iter(lambda: rng.sample(range(om.n), k), None)
                if om.subset_rank(e) == k
            )
            spec = LexExtensionSpec(tuple((e, rng.choice((PLUS, MINUS))) for e in elems))
            ext = lex_extend(om, spec)
            oracle = extend_by_localization(om, lex_localization(om, spec))
            assert validate_chirotope(ext.chirotope).ok
            assert ext.cocircuits == oracle.cocircuits
            shapes.add((om.is_uniform(), k == om.rank))
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_lex_extend_chirotopes_are_valid():
    # the chirotope route skips the Grassmann-Pluecker check: every
    # chirotope it returns must pass it, and be uniform
    rng, oms = _extension_inputs(38)
    for om in oms:
        for spec in _sampled_specs(rng, om, count=4):
            chi = lex_extend(om, spec).chirotope
            assert chi.n == om.n + 1 and chi.rank == om.rank
            assert validate_chirotope(chi).ok
            assert chi.is_uniform()


def test_extension_realization_oracle():
    # placing the new point just past element 0 on the W3 line realizes
    # the same extension as the lexicographic rule
    ext = lex_extend(w3(), spec_of((0, PLUS), (1, PLUS)))
    realized = om_from_points([[1, 1], [1, 2], [1, 3], [8, 9]])  # t = 1+1/8
    assert set(realized.cocircuits) == set(ext.cocircuits)


def test_extension_cocircuit_count_matches_general_position():
    rng = random.Random(32)
    om = om_from_points(random_points(rng, 3, 6))
    spec = spec_of((2, PLUS), (4, MINUS), (0, PLUS))
    ext = lex_extend(om, spec)
    assert len(ext.cocircuits) == 2 * math.comb(om.n + 1, om.rank - 1)


def test_partial_spec_localization_route():
    om = cyclic_om(3, 6)
    ext = lex_extend(om, spec_of((0, PLUS)))  # parallel-ish extension
    assert ext.n == 7 and ext.rank == 3
    report = validate_cocircuit_axioms(ext.cocircuits, n=7, rank=3)
    assert report.ok


def test_dependent_spec_rejected():
    om = w3().direct_sum(w3())
    with pytest.raises(ExtensionError):
        lex_extend(om, spec_of((0, PLUS), (1, PLUS), (2, PLUS)))


# -- corresponding cocircuits ----------------------------------------------------

def test_corresponding_cocircuit_w3():
    ext = lex_extend(w3(), spec_of((0, PLUS), (1, PLUS)))
    x = sv("+--0")
    y = corresponding_cocircuit(ext, x, 0, 3)
    assert y == sv("0---")
    assert corresponding_cocircuit(ext, y, 0, 3) == x


def test_fprime_zero_sign_rule():
    # X_{f'} = 0 and X_f != 0 forces X_f = -a1*a2*X_{e_i} at the first
    # nonzero priority element
    rng = random.Random(33)
    for a1, a2 in ((PLUS, PLUS), (PLUS, MINUS), (MINUS, PLUS)):
        om = om_from_points(random_points(rng, 3, 6))
        elems = rng.sample(range(6), 3)
        spec = LexExtensionSpec(((elems[0], a1), (elems[1], a2), (elems[2], PLUS)))
        ext = lex_extend(om, spec)
        f, fp = elems[0], om.n
        for x in ext.cocircuits:
            if x[fp] == 0 and x[f] != 0:
                for e, a in spec.terms[1:]:
                    if x[e] != 0:
                        assert x[f] == -a1 * a * x[e]
                        break


def test_pair_kind_by_head_sign():
    om = cyclic_om(3, 6)
    for a1, expect in ((PLUS, "contravariant"), (MINUS, "covariant")):
        ext = lex_extend(om, spec_of((0, a1), (1, PLUS), (2, PLUS)))
        assert pair_kind(ext, 0, om.n) == expect


# -- swap isomorphism -------------------------------------------------------------

def test_swap_isomorphism():
    assert swap_isomorphism_check(w3(), spec_of((0, PLUS), (1, PLUS)))
    assert swap_isomorphism_check(w3(), spec_of((0, PLUS), (1, MINUS)))
    rng = random.Random(34)
    om = om_from_points(random_points(rng, 3, 6))
    spec = spec_of((1, PLUS), (3, MINUS), (5, PLUS))
    assert swap_isomorphism_check(om, spec)


def _swap_inputs():
    """Seeded uniform realizable inputs of ranks 2-4 and the first BFS
    classes from non_euclidean_848."""
    rng = random.Random(41)
    oms = [
        om_from_points(random_points(rng, r, r + rng.randint(2, 4)))
        for r in (2, 3, 3, 4, 4)
    ]
    graph = mutation_graph_bfs(non_euclidean_848(), max_nodes=8)
    oms.extend(node.om for node in graph.nodes.values())
    return rng, oms


def _swapped_cocircuits_equal(a, b, i, j):
    """The cocircuit comparison: a with i and j exchanged is b."""
    return {x.swap(i, j) for x in a.cocircuits} == set(b.cocircuits)


def test_swap_comparison_matches_cocircuits():
    # the chirotope comparison against the cocircuit one, on the pairs
    # the swap check compares and on pairs with one tail sign changed
    rng, oms = _swap_inputs()
    answers = set()
    for om in oms:
        for spec in _sampled_specs(rng, om):
            (f, a1), rest = spec.terms[0], spec.terms[1:]
            o2 = lex_extend(om, spec)
            alt = ((f, a1),) + tuple((e, -a) for e, a in rest)
            bent = alt[:-1] + ((alt[-1][0], -alt[-1][1]),)
            o3s = [lex_extend(om, LexExtensionSpec(terms)) for terms in (alt, bent)]
            if a1 == MINUS:
                o3s = [o3.reorient({f, om.n}) for o3 in o3s]
            assert swap_isomorphism_check(om, spec) == (
                _swapped_cocircuits_equal(o3s[0], o2, f, om.n)
            )
            for o3 in o3s:
                equal = _swapped(o3, f, om.n) == o2
                assert equal == _swapped_cocircuits_equal(o3, o2, f, om.n)
                answers.add(equal)
    assert answers == {True, False}


def test_swap_isomorphism_both_head_signs():
    # om[f^a1, e2^-a2, ...] with f and the new element exchanged, and
    # both reoriented when a1 = -, is om[f^a1, e2^a2, ...]: full and
    # partial specs, and on cyclic_om(4,8)
    rng, oms = _swap_inputs()
    oms.append(cyclic_om(4, 8))
    plain = set()
    for om in oms:
        for spec in _sampled_specs(rng, om, count=2):
            f, rest = spec.terms[0][0], spec.terms[1:]
            for a1 in (PLUS, MINUS):
                for k in range(1, om.rank):
                    terms = ((f, a1),) + rest[:k]
                    assert swap_isomorphism_check(om, LexExtensionSpec(terms))
                    if a1 == MINUS:
                        # without the reorientation the swap fails
                        alt = ((f, a1),) + tuple((e, -a) for e, a in rest[:k])
                        o3 = lex_extend(om, LexExtensionSpec(alt))
                        o2 = lex_extend(om, LexExtensionSpec(terms))
                        plain.add(_swapped_cocircuits_equal(o3, o2, f, om.n))
    assert plain == {False}


def test_commute_check_matches_cocircuits():
    # the commute check's verdict against the cocircuit comparison of
    # the two oriented matroids it reports
    rng, oms = _swap_inputs()
    checked = 0
    for om in oms:
        for cert in mutations(om)[:3]:
            g = rng.choice([e for e in range(om.n) if e not in cert.basis])
            report = flip_lex_commute_check(om, cert.basis, g)
            assert report.equal
            assert _swapped_cocircuits_equal(
                report.flip_then_extend_then_flip, report.extend_then_flip,
                cert.basis[0], om.n,
            )
            checked += 1
    assert checked >= 20


def test_swap_isomorphism_needs_general_position():
    s = w3().direct_sum(w3())
    with pytest.raises(ExtensionError):
        swap_isomorphism_check(s, spec_of((0, PLUS), (3, PLUS)))


# -- creation / preservation / destruction ----------------------------------------

def test_creation_w3():
    cert = creation_check(w3(), spec_of((0, PLUS), (1, PLUS)))
    assert cert is not None
    assert cert.basis == (0, 3)


def test_creation_cyclic():
    om = cyclic_om(4, 8)
    cert = creation_check(om, spec_of((0, PLUS), (1, PLUS), (2, PLUS), (3, PLUS)))
    assert cert is not None
    assert set(cert.basis) == {0, 8, 1, 2}


def test_nonadjacent_mutations_persist():
    rng = random.Random(35)
    om = om_from_points(random_points(rng, 3, 6))
    f = 0
    spec = spec_of((f, PLUS), (1, PLUS), (2, PLUS))
    ext = lex_extend(om, spec)
    for cert in mutations(om):
        if f not in cert.basis:
            assert mutation_from_basis(ext, cert.basis) is not None


def test_orient_tope_positive_matches_mutation_from_basis(non_euclidean_om):
    # the reoriented certificate against the certificate computed afresh
    # on the reoriented oriented matroid
    rng = random.Random(39)
    oms = [non_euclidean_om, cyclic_om(4, 8), w3()]
    oms.extend(om_from_points(random_points(rng, r, r + 3)) for r in (2, 3, 4, 5))
    reoriented = 0
    for om in oms:
        for cert in mutations(om):
            om2, cert2, neg = orient_tope_positive(om, cert)
            assert neg == frozenset(e for e in range(om.n) if cert.tope[e] < 0)
            assert om2 == om.reorient(neg)
            assert cert2 == mutation_from_basis(om2, cert.basis)
            assert all(s > 0 for s in cert2.tope)
            reoriented += bool(neg)
    assert reoriented


def test_destruction():
    om = cyclic_om(4, 8)
    cert = mutation_from_basis(om, (0, 1, 2, 3))
    rep = destruction_check(om, cert, 0, 5)
    assert rep.new_certificate is not None
    assert set(rep.new_certificate.basis) == {8, 1, 2, 3}
    assert rep.decertified
    assert any(count > om.rank for count in rep.lift_adjacency.values())


def test_destruction_rank2_analogue():
    # in rank 2 the shifted basis re-certifies but every tope stays
    # simplicial (two walls each), so nothing is de-certified
    om = w3()
    cert = mutation_from_basis(om, (0, 1))
    rep = destruction_check(om, cert, 0, 2)
    assert rep.new_certificate is not None
    assert set(rep.new_certificate.basis) == {3, 1}
    assert not rep.decertified
    assert all(count == 2 for count in rep.lift_adjacency.values())


def test_destruction_mutation_without_fprime_keeps_constant_sign():
    # mutations not involving the new element have constant f'-value
    om = cyclic_om(4, 8)
    spec = spec_of((0, PLUS), (5, MINUS), (6, PLUS), (7, PLUS))
    ext = lex_extend(om, spec)
    fp = om.n
    for cert in mutations(ext):
        if fp not in cert.basis:
            vals = {x[fp] for x in cert.cocircuit_vectors() if x[fp] != 0}
            assert len(vals) == 1


# -- perturbation ------------------------------------------------------------------

def _perturbable_instance():
    # extend the cyclic polytope through one cocircuit of a mutation:
    # the f-base cocircuit gets e = 0, other base cocircuits e = +
    from omforge.core import om_from_points, realizable_extend_through
    from omforge.corpus import cyclic_points

    rng = random.Random(36)
    om = cyclic_om(4, 8)
    cert = mutation_from_basis(om, (0, 1, 2, 3))
    x = cert.cocircuit_for(0)
    pts = realizable_extend_through(cyclic_points(4, 8), [sorted(x.zero_set())], rng)
    ext = om_from_points(pts)
    target = None
    for v in ext.cocircuits:
        if v.restrict(range(8)) in (x, -x) and v[8] == 0:
            target = v if v.restrict(range(8)) == x else -v
            break
    assert target is not None
    return ext, target


def test_perturb_and_undo():
    ext, x = _perturbable_instance()
    moved = perturb_extension(ext, x, 8, new_sign=MINUS)
    assert validate_cocircuit_axioms(moved.cocircuits, n=9, rank=4).ok
    x2 = x.with_sign(8, MINUS)
    assert x2 in moved.cocircuits
    # old cocircuits other than x keep their e-values
    old_vals = {v.restrict(range(8)): v[8] for v in ext.cocircuits if v not in (x, -x)}
    for w in moved.cocircuits:
        w0 = w.restrict(range(8))
        if w0 in old_vals and w0 in ext.delete({8}).cocircuits:
            assert w[8] == old_vals[w0]
    back = perturb_extension(moved, x2, 8, new_sign=0)
    assert back == ext


def test_perturb_rejects_non_cocircuit():
    ext, x = _perturbable_instance()
    with pytest.raises(PerturbationError):
        perturb_extension(ext, x.with_sign(0, 0), 8)


# -- flip / extension exchange ------------------------------------------------------

def test_flip_lex_commute_cyclic():
    om = cyclic_om(4, 8)
    report = flip_lex_commute_check(om, (0, 1, 2, 3), 5)
    assert report.equal
    assert report.m_is_mutation and report.mprime_is_mutation


def test_flip_lex_commute_rank2():
    report = flip_lex_commute_check(cyclic_om(2, 5), (0, 1), 3)
    assert report.equal


def test_mandel_pipeline_on_euclidean_input():
    om = cyclic_om(4, 8)
    result = mandel_from_euclidean_mutant(om, (0, 1, 2, 3), 5)
    assert result.deletion_ok
    assert result.ok
    assert result.fprime == 8


def test_mandel_pipeline_verdicts_match_is_euclidean(non_euclidean_om):
    # every pipeline result on non_euclidean_848: the sign-route verdicts
    # of the programs (e, f') and the deletion check by chirotopes,
    # against their cocircuit oracles
    om = non_euclidean_om
    results = [
        result
        for cert in mutations(om)
        for result in _mandel_pipeline_results(om, cert.basis)
    ]
    assert len(results) == 128
    seen = set()
    for result in results:
        ext, fp = result.om_extended, result.fprime
        assert ext._uniform_chirotope()  # so the verdicts read signs
        assert result.program_verdicts == {
            e: is_euclidean(Program(ext, e, fp)).euclidean for e in range(om.n)
        }
        deleted = minor_cocircuits(ext, delete={fp})
        assert result.deletion_ok == (deleted == (om.rank, om.cocircuits))
        seen.update(result.program_verdicts.values())
    assert seen == {True, False}


def test_extension_checks_derive_no_cocircuits(count_calls, non_euclidean_om):
    # once the input's own cocircuits exist, the lex witness check, the
    # Mandel pipeline, the swap isomorphism check and the flip/extension
    # exchange check read signs only: no extension, reorientation, flip
    # or relabelling derives cocircuits or runs the Grassmann-Pluecker
    # check
    om = cyclic_om(4, 8)
    certs = mutations(non_euclidean_om)
    assert om.cocircuits and non_euclidean_om.cocircuits
    derived = count_calls(core, "_derive_cocircuits")
    validated = count_calls(core, "validate_chirotope")
    rng = random.Random(40)
    for spec in _sampled_specs(rng, om, count=8):
        _verify_lex_witness(om, spec)
        swap_isomorphism_check(om, spec)
    results = [
        result
        for cert in certs
        for result in _mandel_pipeline_results(non_euclidean_om, cert.basis)
    ]
    assert len(results) == 128
    for source in (om, non_euclidean_om):
        for cert in mutations(source):
            g = next(e for e in range(source.n) if e not in cert.basis)
            assert flip_lex_commute_check(source, cert.basis, g).equal
    assert derived == [] and validated == []


def test_preservation_lemmas():
    # lex extension of a Euclidean om: (om+p, p, e) all Euclidean
    rng = random.Random(37)
    om = om_from_points(random_points(rng, 4, 7))
    spec = spec_of((2, PLUS), (0, MINUS), (5, PLUS), (6, MINUS))
    ext = lex_extend(om, spec)
    p = om.n
    assert all(
        is_euclidean(Program(ext, p, e)).euclidean for e in range(om.n)
    )
    # inseparable substitution on the uniform extension
    f = 2
    for g in range(om.n):
        if g == f:
            continue
        assert (
            is_euclidean(Program(ext, g, f)).euclidean
            == is_euclidean(Program(ext, g, p)).euclidean
        )


def test_new_mutation_contravariant_pair():
    # contravariant pair (f, f') with f' in general position: G_f^- of
    # (om, f', f) is empty and f gains a mutation with all cocircuits
    # f' = + that survives deleting f'
    om = cyclic_om(3, 6)
    f = 0
    ext = lex_extend(om, spec_of((f, PLUS), (2, PLUS), (4, PLUS)))
    fp = om.n
    from omforge.programs import cocircuit_graph

    graph = cocircuit_graph(Program(ext, fp, f))
    assert graph.gf_minus() == ()
    assert graph.gf_plus() != ()
    hit = None
    for cert in mutations(ext):
        if f in cert.basis:
            vals = {x[fp] for x in cert.cocircuit_vectors()}
            if vals == {PLUS}:
                hit = cert
                break
    assert hit is not None
    deleted = ext.delete({fp})
    assert mutation_from_basis(deleted, hit.basis) is not None
