import itertools
import random
from fractions import Fraction

import pytest
from cocircuit_oracles import (
    coloops_of,
    direct_sum_cocircuits,
    dual_cocircuits,
    in_general_position,
    loops_of,
    minor_cocircuits,
    special_position,
)

from omforge.core import (
    Chirotope,
    InvalidCocircuits,
    OrientedMatroid,
    _nullspace,
    chirotope_from_cocircuits,
    cocircuits_from_chirotope,
    cocircuits_from_points,
    om_from_cocircuits,
    om_from_points,
    det_sign,
    matrix_rank,
    pair_kind,
    realizable_extend_through,
    validate_chirotope,
    validate_cocircuit_axioms,
)
from omforge.corpus import cyclic_om, cyclic_points, random_points, w3
from omforge.faces import mutations
from omforge.signs import SignVector, mask_of

sv = SignVector.from_string

W3_COCIRCUITS = {sv(s) for s in ("+0-", "-0+", "0--", "0++", "++0", "--0")}


# -- Chirotope.from_points --------------------------------------------------

def test_rank2_collinear_hand_determinants():
    chi = Chirotope.from_points([[1, 1], [1, 2], [1, 3]])
    # 2x2 determinants of (1,ti),(1,tj) are tj - ti > 0 for i < j
    assert chi.basis_sign((0, 1)) == 1
    assert chi.basis_sign((0, 2)) == 1
    assert chi.basis_sign((1, 2)) == 1


def test_repeated_row_gives_zero_sign():
    chi = Chirotope.from_points([[1, 1], [1, 1], [1, 3]])
    assert chi.basis_sign((0, 1)) == 0
    assert not chi.is_uniform()


def test_cyclic_moment_curve_all_plus():
    chi = Chirotope.from_points(cyclic_points(4, 8))
    # Vandermonde positivity: every 4x4 minor of the moment curve is positive
    assert chi.to_string() == "+" * 70


def test_rank_deficient_rejected():
    with pytest.raises(ValueError):
        Chirotope.from_points([[1, 1], [2, 2], [3, 3]])


# -- fraction-free elimination against the Leibniz formula --------------------

def leibniz_det(m) -> Fraction:
    """Permutation-sum determinant over Fraction."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(
            perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2)
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(m[i][j])
        total += term
    return total


def leibniz_rank(m) -> int:
    """Largest k with a nonzero k x k minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in itertools.combinations(range(len(m)), k):
            for cols in itertools.combinations(range(len(m[0])), k):
                if leibniz_det([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def random_matrix(rng, nrows, ncols, rational):
    def entry():
        if rational:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        return rng.randint(-3, 3)

    m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.randrange(4)
    if shape == 1 and nrows >= 2:
        # the last row a combination of earlier rows
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (nrows - 1)])]
    elif shape == 2:
        # a zero column
        j = rng.randrange(ncols)
        for row in m:
            row[j] = 0 * row[j]
    elif shape == 3 and ncols >= 2:
        # rank at most one
        c = [rng.randint(-2, 2) for _ in range(nrows)]
        m = [[c[i] * m[0][j] for j in range(ncols)] for i in range(nrows)]
    return m


@pytest.mark.parametrize("rational", [False, True])
def test_elimination_matches_leibniz(rational):
    rng = random.Random(404 + rational)
    for _ in range(250):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols, rational)
        rank = leibniz_rank(m)
        assert matrix_rank(m) == rank
        if nrows == ncols:
            d = leibniz_det(m)
            assert det_sign(m) == (d > 0) - (d < 0)
        basis = _nullspace(m, ncols)
        assert len(basis) == ncols - rank
        # the free columns: those outside the span of the columns before them
        free = [
            c for c in range(ncols)
            if leibniz_rank([row[: c + 1] for row in m])
            == leibniz_rank([row[:c] for row in m])
        ]
        assert len(free) == len(basis)
        for fc, v in zip(free, basis):
            assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0 for row in m)
            assert [v[c] for c in free] == [int(c == fc) for c in free]


# -- validate_chirotope ------------------------------------------------------

def test_realizable_chirotopes_validate():
    rng = random.Random(2)
    for _ in range(8):
        pts = random_points(rng, 3, 6, uniform=False)
        assert validate_chirotope(Chirotope.from_points(pts)).ok


def test_grassmann_pluecker_violation():
    # chi(01)chi(23), -chi(02)chi(13), chi(03)chi(12) all positive here,
    # and indeed the pattern forces the cyclic order t1<t2<t3<t1
    chi = Chirotope.from_string(2, 4, "++++-+")
    report = validate_chirotope(chi)
    assert not report.ok
    assert report.violations[0][0] == "grassmann-pluecker-3"
    assert report.violations[0][1][1] == (0, 1, 2, 3)


def test_spec_rank2_pattern_is_actually_realizable():
    # chi(12)=chi(34)=chi(13)=chi(24)=chi(14)=+, chi(23)=- comes from
    # collinear points ordered 1,3,2,4, so it passes validation
    chi = Chirotope.from_points([[1, 0], [1, 2], [1, 1], [1, 3]])
    assert chi.to_string() == "+++-++"
    assert validate_chirotope(chi).ok


def test_basis_exchange_matches_the_axiom():
    # the support check against the exchange axiom as stated, on random
    # supports and on the supports of realizable non-uniform maps
    rng = random.Random(5)
    seen = set()
    for r, n in ((2, 5), (3, 6)):
        subsets = list(itertools.combinations(range(n), r))
        maps = [
            Chirotope.from_points(random_points(rng, r, n, uniform=False))
            for _ in range(20)
        ]
        for _ in range(200):
            p = rng.choice((0.5, 0.9, 0.97))
            keep = [b for b in subsets if rng.random() < p] or subsets[:1]
            maps.append(Chirotope(r, n, {b: 1 for b in keep}))
        for chi in maps:
            bases = {frozenset(b) for b in subsets if chi.signs[mask_of(b)]}
            axiom = all(
                any(b1 - {x} | {y} in bases for y in b2 - b1)
                for b1 in bases for b2 in bases for x in b1 - b2
            )
            report = validate_chirotope(chi)
            flagged = any(name == "basis-exchange" for name, _ in report.violations)
            assert flagged == (not axiom)
            seen.add(axiom)
    assert seen == {True, False}


def test_all_zero_rejected():
    chi = Chirotope(2, 3, {})
    report = validate_chirotope(chi)
    assert not report.ok
    assert report.violations[0][0] == "identically-zero"


# -- cocircuits --------------------------------------------------------------

def test_w3_cocircuits():
    assert set(w3().cocircuits) == W3_COCIRCUITS


def test_uniform_cocircuit_count():
    om = cyclic_om(4, 8)
    assert len(om.cocircuits) == 112  # 2 * C(8,3)


def test_chirotope_vs_point_cocircuits():
    rng = random.Random(3)
    for _ in range(6):
        pts = random_points(rng, 3, 7, uniform=False)
        om = om_from_points(pts)
        assert set(om.cocircuits) == cocircuits_from_points(pts)


def test_cocircuit_axioms_valid():
    report = validate_cocircuit_axioms(w3().cocircuits, n=3, rank=2)
    assert report.ok


def test_missing_negation_detected():
    vecs = set(W3_COCIRCUITS)
    vecs.remove(sv("-0+"))
    report = validate_cocircuit_axioms(vecs, n=3)
    assert not report.ok
    assert any(a == "C1" for a, _ in report.violations)


def test_corrupted_w3_fails_elimination():
    vecs = (W3_COCIRCUITS - {sv("+0-"), sv("-0+")}) | {sv("+0+"), sv("-0-")}
    report = validate_cocircuit_axioms(vecs, n=3)
    assert not report.ok


# -- rank oracle -------------------------------------------------------------

def test_subset_rank():
    om = w3()
    assert om.subset_rank(()) == 0
    assert om.subset_rank(range(3)) == 2
    assert om.subset_rank({1}) == 1
    s = w3().direct_sum(w3())
    assert s.subset_rank({0, 1, 2}) == 2
    assert s.subset_rank({0, 3}) == 2
    assert s.subset_rank(range(6)) == 4


def test_loops_and_coloops_from_chirotope_match_cocircuit_route():
    rng = random.Random(19)
    for r, n in ((1, 4), (3, 3), (4, 5), (5, 7)):
        for _ in range(3):
            om = om_from_points(random_points(rng, r, n))
            assert om.loops() == loops_of(om) == frozenset()
            assert om.coloops() == coloops_of(om)
            assert om.coloops() == (frozenset(range(n)) if r == n else frozenset())
    # a uniform chirotope answers without deriving its cocircuits
    om = cocircuits_from_chirotope(cyclic_om(4, 8).chirotope)
    assert om.loops() == om.coloops() == frozenset()
    assert om._cocircuits is None


# -- dual --------------------------------------------------------------------

def test_dual_involution_and_w3():
    om = w3()
    d = om.dual()
    assert d.rank == 1 and d.n == 3
    assert d.cocircuits == {sv("+-+"), sv("-+-")}
    assert d.dual() == om


def test_dual_mutation_count_matches():
    om = cyclic_om(3, 6)
    assert len(mutations(om)) == len(mutations(om.dual()))


def test_dual_general_path_matches_chirotope_path():
    # the dual chirotope against the signed circuits by orthogonality,
    # also where the dual has rank 0 or rank n
    rng = random.Random(23)
    oms = [cyclic_om(3, 5), w3().direct_sum(w3()), cyclic_om(3, 3), special_position(rng, 3, 6)]
    for om in oms:
        dual = om.dual()
        assert (dual.n, dual.rank) == (om.n, om.n - om.rank)
        assert dual.cocircuits == dual_cocircuits(om)
        assert dual.dual() == om


def test_deletion_contraction_swap_under_duality():
    om = cyclic_om(3, 6)
    for e in (0, 3, 5):
        assert om.delete({e}).dual() == om.dual().contract({e})
        assert om.contract({e}).dual() == om.dual().delete({e})


# -- minors ------------------------------------------------------------------

def test_minor_identity():
    om = w3()
    assert om.minor() == om


def test_w3_delete():
    m = w3().delete({2})
    assert m.n == 2 and m.rank == 2
    assert len(m.cocircuits) == 4


def test_uniform_contraction_counts():
    om = cyclic_om(4, 8)
    m = om.contract({0})
    assert m.rank == 3 and m.n == 7
    assert len(m.cocircuits) == 2 * 21  # 2 * C(7,2)
    assert m.is_uniform()


def test_minor_errors():
    with pytest.raises(ValueError):
        w3().minor(delete={0, 1, 2})
    with pytest.raises(ValueError):
        w3().minor(delete={0}, contract={0})
    # a rank-0 chirotope exists, but a minor of rank 0 is refused
    with pytest.raises(ValueError, match="rank 0"):
        w3().contract({0, 1})


def test_minors_match_cocircuit_minor():
    # contractions, deletions and both at once, on configurations in
    # special position, against the cocircuit minor
    rng = random.Random(61)
    shapes = set()
    for r, n in ((2, 6), (3, 7), (4, 8)):
        for _ in range(4):
            om = special_position(rng, r, n)
            for _ in range(5):
                elems = rng.sample(range(n), rng.randint(1, 4))
                split = rng.randint(0, len(elems))
                delete, contract = elems[:split], elems[split:]
                rank, cocircuits = minor_cocircuits(om, delete, contract)
                if rank == 0:
                    with pytest.raises(ValueError, match="rank 0"):
                        om.minor(delete, contract)
                    continue
                got = om.minor(delete, contract)
                assert (got.n, got.rank) == (n - len(elems), rank)
                assert got.cocircuits == cocircuits
                dropped = rank < om.rank - om.subset_rank(contract)
                shapes.add((bool(delete), bool(contract), dropped))
    # pure deletions, pure contractions and mixed minors, some of them
    # deleting coloops of what is kept
    assert {(d, c) for d, c, _ in shapes} == {(True, False), (False, True), (True, True)}
    assert any(dropped for _, _, dropped in shapes)


@pytest.mark.parametrize(
    "make",
    [
        lambda: (w3(), w3()),
        lambda: (cyclic_om(2, 4), cyclic_om(1, 2)),
        lambda: (cyclic_om(2, 3), special_position(random.Random(71), 3, 6)),
        lambda: (cyclic_om(3, 3), om_from_cocircuits(2, 0, ())),
    ],
    ids=["w3+w3", "c24+c12", "c23+special", "free+rank0"],
)
def test_direct_sum_matches_zero_padded_cocircuits(make):
    a, b = make()
    s = a.direct_sum(b)
    assert (s.n, s.rank) == (a.n + b.n, a.rank + b.rank)
    assert s.cocircuits == direct_sum_cocircuits(a, b)
    assert validate_chirotope(s.chirotope).ok


# -- cocircuit input ------------------------------------------------------------

def test_non_uniform_cocircuit_set_carries_its_chirotope():
    # om_from_cocircuits recovers the chirotope of a non-uniform set,
    # up to sign
    rng = random.Random(67)
    oms = [special_position(rng, r, n) for r, n in ((2, 5), (3, 7), (4, 8))]
    oms += [w3().direct_sum(w3()), cyclic_om(4, 8).contract({2}).delete({5})]
    for om in oms:
        got = om_from_cocircuits(om.n, om.rank, om.cocircuits)
        assert got.chirotope in (om.chirotope, om.chirotope.negate())
    assert not any(om.is_uniform() for om in oms[:4])


def test_om_from_cocircuits_plain_errors():
    # shape errors are ValueErrors, not axiom failures
    coc = sorted(w3().cocircuits, key=SignVector.sort_key)
    cases = [
        (4, 2, coc, "length"),
        (3, 2, coc[1:], "negation"),
        (3, 2, coc + [sv("000")], "zero vector"),
        (3, 3, coc, "declared rank 3"),
        (3, 1, (), "declared rank 1"),
        (3, -1, (), "declared rank -1"),
        (21, 1, [sv("+" * 21), sv("-" * 21)], "n <= 20"),
    ]
    for n, rank, vecs, message in cases:
        with pytest.raises(ValueError, match=message) as info:
            om_from_cocircuits(n, rank, vecs)
        assert not isinstance(info.value, InvalidCocircuits)


def test_om_from_cocircuits_decides_like_the_axioms():
    # one entry of one cocircuit pair changed, on sets uniform or not:
    # the door accepts exactly the sets that pass the cocircuit axioms.
    # First a set where the cocircuit vanishing on the closure of B - b
    # also vanishes at b: the recovery must stop, as it can sign no
    # basis from there
    changed = [sv(s) for s in (
        "+-+0+", "-+-0-", "+0+-+", "-0-+-", "0+---", "0-+++", "0+0-0", "0-0+0")]
    with pytest.raises(InvalidCocircuits):
        om_from_cocircuits(5, 2, changed)
    rng = random.Random(73)
    outcomes = set()
    for _ in range(120):
        r = rng.randint(2, 3)
        om = special_position(rng, r, r + 3) if rng.random() < 0.5 else (
            om_from_points(random_points(rng, r, r + 2)))
        vecs = sorted(om.cocircuits, key=SignVector.sort_key)
        x, e = rng.choice(vecs), rng.randrange(om.n)
        signs = list(x)
        signs[e] = rng.choice([s for s in (1, 0, -1) if s != signs[e]])
        y = SignVector.from_signs(signs)
        if y.is_zero():
            continue
        changed = [v for v in vecs if v not in (x, -x)] + [y, -y]
        expected = validate_cocircuit_axioms(changed, n=om.n, rank=om.rank).ok
        try:
            om_from_cocircuits(om.n, om.rank, changed)
            outcomes.add(True)
            assert expected
        except InvalidCocircuits:
            outcomes.add(False)
            assert not expected
        except ValueError as exc:  # the change moved the rank
            assert "declared rank" in str(exc)
    assert outcomes == {True, False}


def test_rank0_cocircuit_set():
    om = om_from_cocircuits(3, 0, ())
    assert (om.n, om.rank, om.cocircuits) == (3, 0, frozenset())
    assert om.loops() == frozenset(range(3)) and om.coloops() == frozenset()
    assert om.is_uniform() and not om._uniform_chirotope()
    assert om.dual() == OrientedMatroid(Chirotope(3, 3, {(0, 1, 2): 1}))


# -- reorientation -----------------------------------------------------------

def test_reorient_involution_and_identity():
    om = cyclic_om(3, 6)
    assert om.reorient(()) == om
    assert om.reorient({1, 4}).reorient({1, 4}) == om


def test_reorient_mutation_count_invariant():
    om = cyclic_om(3, 6)
    assert len(mutations(om.reorient({0, 3, 5}))) == len(mutations(om))


# -- direct sum --------------------------------------------------------------

def test_direct_sum_shape():
    s = w3().direct_sum(w3())
    assert s.n == 6 and s.rank == 4
    assert len(s.cocircuits) == 12
    for x in s.cocircuits:
        assert x.support() <= frozenset(range(3)) or x.support() <= frozenset(
            range(3, 6)
        )


# -- general position --------------------------------------------------------

def test_general_position():
    om = cyclic_om(4, 8)
    assert all(om.is_general_position(e) for e in range(8))
    s = w3().direct_sum(w3())
    assert not any(s.is_general_position(e) for e in range(6))
    par = om_from_points([[1, 1], [2, 2], [1, 3]])  # parallel pair 0,1
    assert not par.is_general_position(0)
    with pytest.raises(ValueError):
        om.is_general_position(99)


# -- chirotope formulas against the cocircuit routes ------------------------

@pytest.fixture(scope="module")
def uniform_instances():
    """Sampled flip-graph classes and lexicographic extensions, each with
    a uniform chirotope."""
    from omforge.classify import mutation_graph_bfs
    from omforge.corpus import non_euclidean_848
    from omforge.extensions import LexExtensionSpec, lex_extend

    out = []
    for seed, count in ((cyclic_om(4, 8), 12), (non_euclidean_848(), 12),
                        (cyclic_om(3, 7), 8), (cyclic_om(2, 5), 4)):
        graph = mutation_graph_bfs(seed, max_nodes=count)
        out.extend(node.om for node in graph.nodes.values())
    rng = random.Random(29)
    for r, n in ((3, 6), (4, 7)):
        om = om_from_points(random_points(rng, r, n, uniform=True))
        for _ in range(2):
            elems = rng.sample(range(n), r)
            signs = [rng.choice((1, -1)) for _ in elems]
            out.append(lex_extend(om, LexExtensionSpec(tuple(zip(elems, signs)))))
    out.append(lex_extend(non_euclidean_848(), LexExtensionSpec(
        ((0, 1), (3, -1), (5, 1), (6, 1)))))
    assert all(om._uniform_chirotope() for om in out)
    return out


def test_chirotope_deletion_matches_cocircuit_minor(uniform_instances):
    for om in uniform_instances:
        n, r = om.n, om.rank
        deletions = [{e} for e in range(n)] + [{0, n - 1}, set(range(r - 1, n))]
        for d in deletions:
            # deleting below rank r deletes coloops of what is left
            fast = om.minor(delete=d)
            assert fast.n == n - len(d)
            assert fast.labels == tuple(str(e) for e in range(n) if e not in d)
            assert (fast.rank, fast.cocircuits) == minor_cocircuits(om, delete=d)


def test_chirotope_equality_matches_cocircuit_equality(uniform_instances):
    outcomes = set()
    for om in uniform_instances:
        chi = om.chirotope
        first = mutations(om)[0].basis
        others = [
            OrientedMatroid(chi),
            OrientedMatroid(chi.negate()),
            om.reorient(range(om.n)),  # negates every cocircuit: the same set
            om.reorient({0}),
            OrientedMatroid(chi.relabel([1, 0] + list(range(2, om.n)))),
            OrientedMatroid(chi.with_basis_flipped(first)),
        ]
        for other in others:
            expected = om.cocircuits == other.cocircuits
            assert (om == other) == expected
            if expected:
                assert hash(om) == hash(other)
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_general_position_shortcut_matches_cocircuit_scan(uniform_instances):
    # points 0, 1 and 2 are collinear: a chirotope that is not uniform
    collinear = om_from_points([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 3]])
    for om in uniform_instances + [collinear]:
        got = [om.is_general_position(e) for e in range(om.n)]
        assert got == [in_general_position(om, e) for e in range(om.n)]
    assert not collinear.is_general_position(0)


# -- inseparable pairs -------------------------------------------------------

def test_lex_pair_is_contravariant():
    from omforge.extensions import LexExtensionSpec, lex_extend

    om = w3()
    ext = lex_extend(om, LexExtensionSpec(((0, 1), (1, 1))))
    assert pair_kind(ext, 0, 3) == "contravariant"


def test_gf_not_empty_scan():
    # g in general position, f not a loop, n > rank: some cocircuit has
    # both nonzero
    rng = random.Random(4)
    for _ in range(5):
        om = om_from_points(random_points(rng, 3, 6))
        for g in range(om.n):
            for f in range(om.n):
                if f == g:
                    continue
                assert any(x[g] != 0 and x[f] != 0 for x in om.cocircuits)


# -- chirotope recovery -------------------------------------------------------

def test_chirotope_from_cocircuits_round_trip():
    om = cyclic_om(4, 7)
    chi = chirotope_from_cocircuits(om.n, om.cocircuits)
    assert chi.to_string() in (
        om.chirotope.to_string(),
        om.chirotope.negate().to_string(),
    )
    assert cocircuits_from_chirotope(chi).cocircuits == om.cocircuits


# -- realizable extension through flats ---------------------------------------

def test_extend_through_generic():
    rng = random.Random(5)
    pts = cyclic_points(4, 8)
    ext = realizable_extend_through(pts, [], rng)
    chi = Chirotope.from_points(ext)
    assert chi.is_uniform()


def test_extend_through_one_hyperplane():
    rng = random.Random(6)
    pts = cyclic_points(4, 8)
    om = cyclic_om(4, 8)
    target = sorted(next(iter(om.cocircuits)).zero_set())
    ext = realizable_extend_through(pts, [target], rng)
    chi = Chirotope.from_points(ext)
    # the three determinants through the target flat vanish, others not
    for a in itertools.combinations(range(8), 3):
        sign = chi.chi(*a, 8)
        if set(a) <= set(target):
            assert sign == 0
        else:
            assert sign != 0


def test_extend_through_three_hyperplanes():
    rng = random.Random(7)
    pts = cyclic_points(4, 8)
    om = cyclic_om(4, 8)
    coc = sorted(om.cocircuits, key=SignVector.sort_key)
    targets = []
    for x in coc:
        z = sorted(x.zero_set())
        if z not in targets:
            targets.append(z)
        if len(targets) == 3:
            break
    ext = realizable_extend_through(pts, targets, rng)
    chi = Chirotope.from_points(ext)
    for t in targets:
        assert chi.chi(*t, 8) == 0


@pytest.mark.parametrize(
    "seed, targets, point",
    [
        (5, [], [39, -8, 5, 27]),
        (6, [[2, 3, 7]], [Fraction(679, 24), 33, -30, 22]),
        (
            7,
            [[5, 6, 7], [0, 6, 7], [4, 5, 7]],
            [Fraction(1, 512), Fraction(1, 64), Fraction(1, 8), 1],
        ),
    ],
)
def test_extend_through_golden_points(seed, targets, point):
    # the targets of the three tests above; the nullspace basis with
    # v[free] = 1 is unique, so any exact elimination gives these points
    ext = realizable_extend_through(cyclic_points(4, 8), targets, random.Random(seed))
    assert ext[-1] == point
    assert all(type(x) is Fraction for x in ext[-1])
