import itertools
import math
import random
import sys
from collections import Counter

import pytest

from omforge.canonical import (
    _colex_index,
    _element_invariants,
    canonical_form,
    canonical_key,
    canonical_search,
)
from omforge.core import Chirotope, cocircuits_from_chirotope, om_from_points
from omforge.corpus import (
    NON_EUCLIDEAN_848_CHI,
    cyclic_om,
    non_euclidean_848,
    random_points,
)


def orbit_copy(chi, rng):
    perm = list(range(chi.n))
    rng.shuffle(perm)
    out = chi.relabel(perm).reorient(
        [e for e in range(chi.n) if rng.random() < 0.5]
    )
    if rng.random() < 0.5:
        out = out.negate()
    return out


def test_orbit_members_share_key():
    rng = random.Random(61)
    for r, n in ((3, 6), (4, 7), (4, 8)):
        om = cyclic_om(r, n)
        key = canonical_form(om)
        for _ in range(4):
            copy = orbit_copy(om.chirotope, rng)
            assert canonical_key(copy) == key


def test_reorientation_invariance():
    om = cyclic_om(3, 6)
    assert canonical_form(om.reorient({0, 2, 4})) == canonical_form(om)


def test_idempotent_on_cyclic():
    key = canonical_form(cyclic_om(4, 8))
    assert canonical_key(Chirotope.from_string(4, 8, key)) == key


def test_distinct_classes_distinct_keys():
    from omforge.faces import flip, mutations

    om = cyclic_om(4, 8)
    m1 = flip(om, mutations(om)[0])
    m2 = flip(m1, mutations(m1)[4])
    keys = {canonical_form(om), canonical_form(m1), canonical_form(m2)}
    assert len(keys) == 3


def test_matches_brute_force_reference():
    # reference: minimum colex string over all invariant-sorted
    # relabelings, all reorientations, and global negation
    def colex_string(chi):
        out = [None] * math.comb(chi.n, chi.rank)
        for b in itertools.combinations(range(chi.n), chi.rank):
            out[_colex_index(b)] = "+" if chi.basis_sign(b) > 0 else "-"
        return "".join(out)

    def reference(chi):
        om = cocircuits_from_chirotope(chi)
        inv = _element_invariants(om)
        required = sorted(inv)
        best = None
        for target in itertools.permutations(range(chi.n)):
            if any(inv[target[k]] != required[k] for k in range(chi.n)):
                continue
            relab = [0] * chi.n
            for pos, e in enumerate(target):
                relab[e] = pos
            base = chi.relabel(relab)
            for c0 in (base, base.negate()):
                for amask in range(1 << chi.n):
                    cc = c0.reorient([e for e in range(chi.n) if amask >> e & 1])
                    s = colex_string(cc)
                    if best is None or s < best:
                        best = s
        return best

    rng = random.Random(62)
    for r, n in ((2, 4), (2, 5), (3, 5), (4, 6), (1, 4), (2, 6)):
        chi = om_from_points(random_points(rng, r, n)).chirotope
        mine = colex_string(Chirotope.from_string(r, n, canonical_key(chi)))
        assert mine == reference(chi)


def test_orbit_copies_share_key_above_nine_elements():
    from omforge.faces import flip, mutations

    rng = random.Random(66)
    for r, n in ((4, 10), (3, 11)):
        om = cyclic_om(r, n)
        neighbour = flip(om, mutations(om)[0])
        keys = set()
        for member in (om, neighbour):
            key = canonical_form(member)
            keys.add(key)
            assert canonical_key(Chirotope.from_string(r, n, key)) == key
            for _ in range(2):
                assert canonical_key(orbit_copy(member.chirotope, rng)) == key
        assert len(keys) == 2


def test_rank2_neighbour_key_is_all_plus():
    # every uniform class of rank <= 2 holds the all-'+' chirotope
    from omforge.faces import flip, mutations

    om = cyclic_om(2, 16)
    neighbour = flip(om, mutations(om)[0])
    assert canonical_form(neighbour) == "+" * 120


def _colex_string(chi):
    out = [None] * math.comb(chi.n, chi.rank)
    for b in itertools.combinations(range(chi.n), chi.rank):
        out[_colex_index(b)] = "+" if chi.basis_sign(b) > 0 else "-"
    return "".join(out)


def _order_sign(seq):
    inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def _unpruned_key(chi):
    """Minimum colex string over the invariant-sorted relabelings, every
    reorientation and both global signs, with nothing pruned."""
    n, r = chi.n, chi.rank
    inv = _element_invariants(cocircuits_from_chirotope(chi))
    required = sorted(inv)
    positions = sorted(itertools.combinations(range(n), r), key=_colex_index)
    masks = [sum(1 << p for p in P) for P in positions]
    best = None
    for target in itertools.permutations(range(n)):
        if any(inv[target[k]] != required[k] for k in range(n)):
            continue
        vals = []
        for P in positions:
            seq = [target[p] for p in P]
            vals.append(chi.basis_sign(sorted(seq)) * _order_sign(seq))
        for g in (1, -1):
            for amask in range(1 << n):
                s = "".join(
                    "+" if g * v * (-1 if (amask & m).bit_count() & 1 else 1) > 0 else "-"
                    for v, m in zip(vals, masks)
                )
                if best is None or s < best:
                    best = s
    return best


def test_pruned_search_matches_unpruned_on_symmetric_instances(monkeypatch):
    from omforge import canonical

    builds = []
    orbits = canonical._orbits
    monkeypatch.setattr(
        canonical, "_orbits", lambda *a: builds.append(1) or orbits(*a)
    )
    for r, n in ((3, 6), (4, 6), (2, 5)):
        chi = cyclic_om(r, n).chirotope
        builds.clear()
        mine = _colex_string(Chirotope.from_string(r, n, canonical_key(chi)))
        if r > 2:  # keys of rank <= 2 are all '+' without a search
            assert builds, f"no automorphism pruning on cyclic_om({r},{n})"
        assert mine == _unpruned_key(chi)


def test_even_rank_keys_match_unpruned_keys():
    # one gauge solution at position r: the other negates rho_0..rho_r
    # and every later rho, so it spells the same strings
    from omforge.faces import flip, mutations

    rng = random.Random(68)
    c46 = cyclic_om(4, 6)
    chis = [om_from_points(random_points(rng, 4, n)).chirotope for n in (5, 5, 6)]
    chis += [flip(c46, cert).chirotope for cert in mutations(c46)[::2]]
    for chi in chis:
        mine = _colex_string(Chirotope.from_string(4, chi.n, canonical_key(chi)))
        assert mine == _unpruned_key(chi)


def test_even_rank_search_builds_fewer_orbits(monkeypatch):
    # each subtree below position r is searched once at even rank, not
    # once per gauge solution; odd rank has one solution
    from omforge import canonical

    builds = []
    orbits = canonical._orbits
    monkeypatch.setattr(
        canonical, "_orbits", lambda *a: builds.append(1) or orbits(*a)
    )
    canonical_key(cyclic_om(4, 8).chirotope)
    assert len(builds) <= 500
    builds.clear()
    canonical_key(cyclic_om(3, 8).chirotope)
    assert len(builds) == 81


def test_negated_pass_stops_at_its_first_tie():
    # at rank 6 reversing the elements negates the alternating
    # chirotope, and the symmetries of cyclic_om(6,8) carry its flips
    # onto each other, so -chi is in the class of a flip: the negated
    # pass ends at its first leaf, which ties the first pass
    from omforge import canonical
    from omforge.faces import flip, mutations

    c68 = cyclic_om(6, 8)
    chi = flip(c68, mutations(c68)[0]).chirotope
    calls = Counter()

    def profile(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name in ("descend", "leaf"):
            if frame.f_globals is vars(canonical):
                calls[name, frame.f_locals["g"]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        found = canonical.key_search(chi)
    finally:
        sys.setprofile(previous)
    assert found.g == 1  # the winner is the first pass's
    assert calls["leaf", -1] == 1 and calls["leaf", 1] > 1
    # one path down to the leaf, not a second full search
    assert calls["descend", -1] <= 2 * chi.n < calls["descend", 1]


def test_symmetric_classes_orbit_keys_and_distinct_keys():
    from omforge.faces import flip, mutations

    rng = random.Random(63)
    c48 = cyclic_om(4, 8)
    neighbours = [flip(c48, cert) for cert in mutations(c48)]
    classes = {
        "cyclic_om(4,8)": [c48],
        "cyclic_om(4,9)": [cyclic_om(4, 9)],
        "non_euclidean_848": [non_euclidean_848()],
        # the cyclic symmetry maps the eight flip bases onto each other
        "cyclic_om(4,8) one-flip": neighbours,
    }
    keys = {}
    for name, members in classes.items():
        key = canonical_form(members[0])
        assert not key.startswith("hash:")
        for om in members:
            assert canonical_form(om) == key, name
            for _ in range(2):
                assert canonical_key(orbit_copy(om.chirotope, rng)) == key, name
        keys[name] = key
    assert len(set(keys.values())) == len(keys)


def test_element_invariants_follow_labels():
    from omforge.faces import flip, mutations

    rng = random.Random(64)
    c48 = cyclic_om(4, 8)
    m1 = flip(c48, mutations(c48)[0])
    m2 = flip(m1, mutations(m1)[4])
    instances = [m1, m2, non_euclidean_848()]
    instances += [om_from_points(random_points(rng, r, n)) for r, n in ((3, 7), (4, 8))]
    for om in instances:
        inv = _element_invariants(om)
        for _ in range(3):
            perm = list(range(om.n))
            rng.shuffle(perm)
            copy = om.chirotope.relabel(perm).reorient(
                [e for e in range(om.n) if rng.random() < 0.5]
            )
            if rng.random() < 0.5:
                copy = copy.negate()
            moved = _element_invariants(cocircuits_from_chirotope(copy))
            assert [moved[perm[e]] for e in range(om.n)] == inv


def test_orbit_copies_share_key_on_every_class_of_small_closures():
    # every uniform class of rank 3 or 4 on seven elements, ten
    # relabelled and reoriented copies each
    from omforge.classify import mutation_graph_bfs

    rng = random.Random(65)
    for r in (3, 4):
        graph = mutation_graph_bfs(cyclic_om(r, 7))
        assert len(graph.nodes) == 11 and not graph.exhausted_budget
        for key, node in graph.nodes.items():
            for _ in range(10):
                assert canonical_key(orbit_copy(node.om.chirotope, rng)) == key


def test_recorded_maps_are_automorphisms_up_to_reorientation(monkeypatch):
    from omforge import canonical
    from omforge.faces import flip, mutations

    seen = []
    orbits = canonical._orbits
    monkeypatch.setattr(
        canonical, "_orbits", lambda gens, *a: seen.append(gens) or orbits(gens, *a)
    )

    def preserved(chi, sigma):
        moved = chi.relabel(sigma)
        bases = list(itertools.combinations(range(chi.n), chi.rank))
        return any(
            all(
                moved.basis_sign(b) * chi.basis_sign(b)
                == (-1 if sum(amask >> e & 1 for e in b) % 2 else 1)
                for b in bases
            )
            for amask in range(1 << chi.n)
        )

    c48 = cyclic_om(4, 8)
    instances = [cyclic_om(3, 7), c48, flip(c48, mutations(c48)[0]), non_euclidean_848()]
    for om in instances:
        seen.clear()
        canonical_key(om.chirotope)
        maps = {tuple(sigma) for gens in seen for sigma in gens}
        assert maps
        for sigma in maps:
            assert preserved(om.chirotope, sigma), sigma


def counter_element_invariants(om):
    """Reference: the colours with the pair and triple counts kept in
    Counters keyed by sorted tuples, as the key was first defined."""
    from omforge.canonical import _ranks
    from omforge.faces import mutation_bases

    n = om.n
    bases = mutation_bases(om)
    holding = [[b for b in bases if e in b] for e in range(n)]
    pair = Counter(p for b in bases for p in itertools.combinations(b, 2))
    triple = Counter(t for b in bases for t in itertools.combinations(b, 3))

    def start(e):
        others = [x for x in range(n) if x != e]
        return (
            len(holding[e]),
            tuple(sorted(pair[tuple(sorted((e, a)))] for a in others)),
            tuple(
                sorted(
                    triple[tuple(sorted((e, a, b)))]
                    for a, b in itertools.combinations(others, 2)
                )
            ),
        )

    colours = _ranks([start(e) for e in range(n)])
    while True:
        refined = _ranks(
            [
                (
                    colours[e],
                    tuple(
                        sorted(
                            tuple(sorted(colours[x] for x in basis if x != e))
                            for basis in holding[e]
                        )
                    ),
                )
                for e in range(n)
            ]
        )
        if len(set(refined)) == len(set(colours)):
            return colours
        colours = refined


@pytest.mark.parametrize(
    "make_seed, classes",
    [
        (lambda: cyclic_om(3, 8), 135),
        (lambda: cyclic_om(4, 8), 60),
        (non_euclidean_848, 40),
        (lambda: cyclic_om(5, 9), 30),
    ],
    ids=["closure38", "cyclic48", "non_euclidean_848", "cyclic59"],
)
def test_table_colours_match_counter_colours_on_bfs_classes(make_seed, classes):
    from omforge.classify import mutation_graph_bfs

    graph = mutation_graph_bfs(make_seed(), max_nodes=classes)
    assert len(graph.nodes) == classes
    for node in graph.nodes.values():
        assert _element_invariants(node.om) == counter_element_invariants(node.om)


def test_table_colours_match_counter_colours_on_small_ranks():
    rng = random.Random(66)
    for r, n in ((1, 4), (2, 6), (3, 5), (4, 7)):
        om = om_from_points(random_points(rng, r, n))
        assert _element_invariants(om) == counter_element_invariants(om)


# Keys as the search defines them; a change to the key definition has to
# change these strings on purpose.
PINNED_KEYS = [
    (lambda: cyclic_om(4, 8), "+" * 70),
    (lambda: cyclic_om(3, 8), "+" * 56),
    (
        lambda: cocircuits_from_chirotope(Chirotope.from_string(4, 8, NON_EUCLIDEAN_848_CHI)),
        "+++++++++++++--+++-++-+--++-+--+--+++++++++++++++++-+++++++++-+++-++++",
    ),
]


@pytest.mark.parametrize("make_om, key", PINNED_KEYS, ids=["cyclic48", "cyclic38", "ne848"])
def test_pinned_keys(make_om, key):
    assert canonical_form(make_om()) == key


def apply_transform(chi, found):
    """chi with element found.perm[p] moved to position p, position p
    reoriented where found.rho[p] < 0, and negated where found.g < 0."""
    position = [0] * chi.n
    for p, e in enumerate(found.perm):
        position[e] = p
    out = chi.relabel(position).reorient(
        [p for p, s in enumerate(found.rho) if s < 0]
    )
    return out.negate() if found.g < 0 else out


def is_signed_reorientation(chi, other):
    """other = s * chi reoriented at some set, for a sign s: the
    per-basis ratio is s * prod(tau[e] for e in B).  tau is read off
    the bases next to the first one (tau[0] = +1 loses nothing, as
    (s, tau) and (s * (-1)^r, -tau) give one ratio) and then checked
    on every basis."""
    n, r = chi.n, chi.rank
    ratio = {b: chi.basis_sign(b) * other.basis_sign(b)
             for b in itertools.combinations(range(n), r)}
    b0 = tuple(range(r))
    tau = [1] * n
    for e in range(r, n):
        tau[e] = ratio[tuple(sorted((set(b0) - {0}) | {e}))] * ratio[b0]
    for f in range(1, r):
        tau[f] = ratio[tuple(sorted((set(b0) - {f}) | {r}))] * ratio[b0] * tau[r]
    s = ratio[b0] * math.prod(tau[e] for e in b0)
    return all(v == s * math.prod(tau[e] for e in b) for b, v in ratio.items())


def transform_instances():
    from omforge.classify import mutation_graph_bfs

    rng = random.Random(67)
    out = list(mutation_graph_bfs(cyclic_om(3, 8)).nodes.values())
    out += mutation_graph_bfs(cyclic_om(4, 8), max_nodes=200).nodes.values()
    out += mutation_graph_bfs(cyclic_om(5, 9), max_nodes=30).nodes.values()
    oms = [node.om for node in out]
    ne848 = non_euclidean_848().chirotope
    oms += [cocircuits_from_chirotope(orbit_copy(ne848, rng)) for _ in range(6)]
    return oms


def test_returned_transform_spells_the_key_and_generators_are_automorphisms():
    oms = transform_instances()
    assert len(oms) == 135 + 200 + 30 + 6
    with_gens = 0
    for om in oms:
        found = canonical_search(om)
        chi = om.chirotope
        assert apply_transform(chi, found).to_string() == found.key
        with_gens += bool(found.gens)
        for sigma in found.gens:
            assert sorted(sigma) == list(range(chi.n))
            assert is_signed_reorientation(chi, chi.relabel(sigma)), sigma
    assert with_gens  # the symmetric classes near the cyclic seeds


def test_signed_reorientation_check_rejects_a_flip():
    from omforge.faces import flip, mutations

    om = cyclic_om(4, 8)
    chi = om.chirotope
    assert is_signed_reorientation(chi, chi.reorient([1, 5]).negate())
    assert not is_signed_reorientation(chi, flip(om, mutations(om)[0]).chirotope)


def test_rank2_keys_carry_no_transform():
    found = canonical_search(cyclic_om(2, 6))
    assert found.key == "+" * 15
    assert (found.perm, found.rho, found.g, found.gens) == (None, None, None, ())
