"""Acceptance criteria as runnable suites.

Each criterion returns a CriterionResult; the shared context carries
the seeded corpus, the eight-point campaign's classes (Euclidean and
non-Euclidean) and its directed-cycle witnesses, and the pool of
uniform rank-4 Euclidean corpus instances met along the way.  Budgets
and tolerances are pinned here; all checks are exact.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .classify import mutation_graph_bfs
from .core import cocircuits_from_points, om_from_points
from .corpus import cyclic_om, non_euclidean_848, random_points, w3
from .extensions import (
    LexExtensionSpec,
    _mandel_pipeline_results,
    creation_check,
    destruction_check,
    lex_extend,
    swap_isomorphism_check,
)
from .faces import (
    flip_basis,
    mutation_adjacency,
    mutation_bases,
    mutation_from_basis,
    mutations,
)
from .programs import (
    Program,
    all_programs_euclidean,
    analyze_cycle,
    find_chords,
    has_euclidean_program,
    is_euclidean,
    program_verdicts,
    reduce_cycle_chordless,
    verify_witness,
    very_strong_components,
)
from .signs import PLUS

DEFAULT_SEED = 20260810
CORPUS_SIZE = 100
CAMPAIGN_TIME_LIMIT = 3600.0  # seconds; criterion 8's 60-minute target


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float
    undetermined: bool = False  # failed only because a budget ran out

    def line(self) -> str:
        flag = "PASS" if self.ok else ("UNDETERMINED" if self.undetermined else "FAIL")
        return f"[{flag}] {self.name} ({self.seconds:.1f}s): {self.detail}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "undetermined": self.undetermined,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class AcceptanceContext:
    seed: int = DEFAULT_SEED
    campaign_nodes: int = 3000
    _corpus: Optional[list] = None
    # the campaign's classes: euclidean_rank4 + non_euclidean holds each once
    euclidean_rank4: list = field(default_factory=list)
    non_euclidean: list = field(default_factory=list)
    rank4_pool: list = field(default_factory=list)  # corpus instances
    witnesses: list = field(default_factory=list)  # (om, g, f, witness)
    campaign_stats: dict = field(default_factory=dict)
    _campaign_done: bool = False

    def corpus(self) -> list:
        """CORPUS_SIZE seeded uniform realizable instances, ranks 2-4,
        n <= 9, plus their defining point configurations."""
        if self._corpus is None:
            rng = random.Random(self.seed)
            out = []
            ranks = (2, 3, 4)
            while len(out) < CORPUS_SIZE:
                r = ranks[len(out) % 3]
                n = rng.randint(r + 2, min(9, r + 5))
                pts = random_points(rng, r, n, uniform=True)
                out.append((pts, om_from_points(pts)))
            self._corpus = out
        return self._corpus

    def register_rank4(self, om) -> None:
        if om.rank == 4 and om.is_uniform() and all_programs_euclidean(om):
            self.rank4_pool.append(om)

    def ensure_campaign(self) -> None:
        if not self._campaign_done:
            run_eight_point_campaign(self)


def _timed(fn: Callable[[], tuple[bool, str]], name: str) -> CriterionResult:
    start = time.time()
    ok, detail = fn()
    return CriterionResult(name, ok, detail, time.time() - start)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1_oracle_equivalence(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        bad = 0
        for pts, om in ctx.corpus():
            oracle = cocircuits_from_points(pts)
            if oracle != set(om.cocircuits):
                bad += 1
        n = len(ctx.corpus())
        return bad == 0, f"{n - bad}/{n} configs: chirotope vs point-determinant cocircuits equal"

    result = _timed(run, "1 oracle-equivalence")
    if result.ok and result.seconds >= 60.0:
        result.ok = False
        result.detail += f"; exceeded 60s target ({result.seconds:.1f}s)"
    return result


def criterion_2_shannon(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        tight = False
        for _, om in ctx.corpus():
            adjacency = mutation_adjacency(om)
            for e, count in adjacency.items():
                if count < om.rank:
                    return False, f"element {e} of {om} has < rank adjacent mutations"
            tight = tight or min(adjacency.values()) == om.rank
        if not tight:
            return False, "no instance achieved the minimum L = rank"
        return True, f"all {len(ctx.corpus())} instances have L >= rank; minimum attained"

    return _timed(run, "2 realizable-shannon")


def criterion_3_realizable_euclidean(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        for _, om in ctx.corpus():
            if not all_programs_euclidean(om):
                return False, f"non-Euclidean program on realizable {om}"
            ctx.register_rank4(om)
        return True, f"all programs Euclidean on {len(ctx.corpus())} realizable instances"

    return _timed(run, "3 realizable-euclidean")


def criterion_4_rank3_universality(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        graph = mutation_graph_bfs(cyclic_om(3, 6), max_nodes=500)
        for key, node in graph.nodes.items():
            if not all_programs_euclidean(node.om):
                return False, f"rank-3 class {key} has a non-Euclidean program"
            for e, count in mutation_adjacency(node.om).items():
                if count < 3:
                    return False, f"rank-3 class {key}: element {e} has < 3 mutations"
        return True, f"{len(graph.nodes)} rank-3 classes all Euclidean with L >= 3"

    result = _timed(run, "4 rank3-universality")
    if result.ok and result.seconds >= 300.0:
        result.ok = False
        result.detail += f"; exceeded 5min target ({result.seconds:.1f}s)"
    return result


def _lex_instances(ctx: AcceptanceContext, count: int = 50) -> list:
    rng = random.Random(ctx.seed + 5)
    out = []
    while len(out) < count:
        r = 3 if len(out) % 2 == 0 else 4
        n = rng.randint(r + 2, r + 4)
        pts = random_points(rng, r, n, uniform=True)
        out.append(om_from_points(pts))
    return out


def criterion_5_lex_battery(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        rng = random.Random(ctx.seed + 55)
        oms = _lex_instances(ctx)
        for om in oms:
            r, n = om.rank, om.n
            elems = rng.sample(range(n), r)
            spec = LexExtensionSpec(tuple((e, PLUS) for e in elems))
            ext = lex_extend(om, spec)
            if len(ext.cocircuits) != 2 * math.comb(n + 1, r - 1):
                return False, f"(a) cocircuit count off after extending {om}"
            cert = creation_check(om, spec)
            if cert is None:
                return False, f"(b) creation certificate missing on {om}"
            f_head = elems[0]
            away = [c for c in mutations(om) if f_head not in c.basis]
            for c in away:
                if mutation_from_basis(ext, c.basis) is None:
                    return False, f"(c) mutation {c.basis} lost after extension"
            cands = [
                (c, g)
                for c in mutations(om)
                for g in range(n)
                if g not in c.basis
            ]
            cert0, g = cands[rng.randrange(len(cands))]
            f_in = cert0.basis[0]
            rep = destruction_check(om, cert0, f_in, g)
            if rep.new_certificate is None:
                return False, f"(d) shifted mutation not certified on {om}"
            if not rep.decertified:
                return False, f"(d) old tope kept rank-many walls on {om}"
            if not swap_isomorphism_check(om, spec):
                return False, f"(e) swap isomorphism failed on {om}"
            ctx.register_rank4(om)
        return True, f"(a)-(e) hold on {len(oms)} uniform rank-3/4 instances"

    return _timed(run, "5 lex-extension-battery")


def criterion_6_preservation(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        rng = random.Random(ctx.seed + 6)
        oms = _lex_instances(ctx)
        # (a) lexicographic extension keeps (om+p, p, f) Euclidean
        for om in oms:
            elems = rng.sample(range(om.n), om.rank)
            signs = [rng.choice((PLUS, -PLUS)) for _ in elems]
            ext = lex_extend(om, LexExtensionSpec(tuple(zip(elems, signs))))
            p = om.n
            for fx in range(om.n):
                if not is_euclidean(Program(ext, p, fx)).euclidean:
                    return False, f"(a) extension program (p,{fx}) not Euclidean"
        # (b) a flip at B keeps the verdict of every program with one of
        # g, f in B: the verdicts a flipped child inherits from its
        # decided parent (the flip rule in `programs`) must match the oracle
        # on the child.  The pool mixes Euclidean instances with
        # non-Euclidean ones (and the campaign's witnesses when they are
        # already in hand)
        flips_b = checked_b = 0
        pool = list(oms)
        pool.extend(non_euclidean_848() for _ in range(3))
        if ctx._campaign_done:
            pool.extend(om for om, _, _, _ in ctx.witnesses[:10])
        for om in pool:
            bases = mutation_bases(om)
            if not bases:
                continue
            basis = bases[rng.randrange(len(bases))]
            program_verdicts(om)  # decided first, so that the child inherits
            child = flip_basis(om, basis)
            for (g, fx), ok in program_verdicts(child).items():
                if (g in basis) == (fx in basis):
                    continue
                if is_euclidean(Program(child, g, fx)).euclidean != ok:
                    return False, f"(b) flip at {basis} changed verdict of (g={g}, f={fx})"
                checked_b += 1
            flips_b += 1
        # (c) direct sums of Euclidean instances stay Euclidean
        small = [om for om in oms if om.n <= 6][:6]
        for r, n in ((2, 4), (2, 5), (3, 5)):
            for k in range(3):
                small.append(om_from_points(random_points(rng, r, n)))
        checked_c = 0
        for i in range(len(small)):
            for j in range(i, len(small)):
                total = small[i].n + small[j].n
                if total > 11:
                    continue
                s = small[i].direct_sum(small[j])
                if not all_programs_euclidean(s):
                    return False, f"(c) direct sum {s} not Euclidean"
                checked_c += 1
                if checked_c >= 50:
                    break
            if checked_c >= 50:
                break
        if checked_c < 50:
            return False, f"(c) only {checked_c} direct sums available"
        # (d) inseparable substitution: verdicts match for f and f'
        checked_d = 0
        for om in oms:
            elems = rng.sample(range(om.n), om.rank)
            ext = lex_extend(om, LexExtensionSpec(tuple((e, PLUS) for e in elems)))
            fx, fp = elems[0], om.n
            for g in range(om.n):
                if g == fx:
                    continue
                a = is_euclidean(Program(ext, g, fx)).euclidean
                b = is_euclidean(Program(ext, g, fp)).euclidean
                if a != b:
                    return False, f"(d) verdicts differ for inseparable pair at g={g}"
                checked_d += 1
            if checked_d >= 60:
                break
        return True, (
            f"(a) {len(oms)} extensions; (b) {flips_b} flips, {checked_b} programs; "
            f"(c) {checked_c} sums; (d) {checked_d} substitutions"
        )

    return _timed(run, "6 euclideaness-preservation")


def criterion_7_min_mutations(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        ctx.ensure_campaign()
        pool = ctx.euclidean_rank4 + ctx.rank4_pool
        if not pool:
            return False, "no Euclidean uniform rank-4 instances registered"
        for om in pool:
            for e, count in mutation_adjacency(om).items():
                if count < 3:
                    return False, f"element {e} has < 3 adjacent mutations on {om}"
        return True, f"L >= 3 on {len(pool)} Euclidean uniform rank-4 instances"

    return _timed(run, "7 euclidean-L3")


def run_eight_point_campaign(ctx: AcceptanceContext) -> None:
    """Flip BFS from the rank-4 cyclic polytope on 8 points; per class:
    (a) some Euclidean program, (b) non-Euclidean classes have a
    Euclidean mutant one flip away, (c) the flip pipeline verifies a
    Mandel-style witness, (d) depth <= 2 classes keep a Euclidean
    program.  Euclidean classes join `euclidean_rank4`, non-Euclidean
    ones `non_euclidean`, and each of those contributes a directed-cycle
    witness on its first non-Euclidean program.
    """
    start = time.time()
    stats = {
        "classes": 0,
        "non_euclidean": 0,
        "a_failures": [],
        "b_failures": [],
        "c_failures": [],
        "d_failures": [],
        "closure": False,
        "elapsed": 0.0,
    }

    def hook(node):
        om = node.om
        stats["classes"] += 1
        if all_programs_euclidean(om):
            ctx.euclidean_rank4.append(om)
            return
        stats["non_euclidean"] += 1
        ctx.non_euclidean.append(om)
        if not has_euclidean_program(om):
            stats["a_failures"].append(node.key)
            if node.depth <= 2:
                stats["d_failures"].append(node.key)
        # witness for the cycle-structure criterion, on the first
        # non-Euclidean program; the verdicts are cached on om
        g, fx = next(pair for pair, ok in program_verdicts(om).items() if not ok)
        ctx.witnesses.append((om, g, fx, is_euclidean(Program(om, g, fx)).witness))
        # Euclidean mutant at distance one, then the Mandel pipeline
        mutation = next(
            (b for b in mutation_bases(om) if all_programs_euclidean(flip_basis(om, b))),
            None,
        )
        if mutation is None:
            stats["b_failures"].append(node.key)
            return
        results = _mandel_pipeline_results(om, mutation)
        if not any(result.ok for result in results):
            stats["c_failures"].append(node.key)

    graph = mutation_graph_bfs(
        cyclic_om(4, 8), max_nodes=ctx.campaign_nodes, node_hook=hook
    )
    stats["closure"] = not graph.exhausted_budget
    stats["elapsed"] = time.time() - start
    ctx.campaign_stats = stats
    ctx._campaign_done = True


def criterion_8_eight_point(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        ctx.ensure_campaign()
        s = ctx.campaign_stats
        problems = []
        if s["classes"] < 500:
            problems.append(f"only {s['classes']} classes reached")
        for tag in ("a", "b", "c", "d"):
            if s[f"{tag}_failures"]:
                problems.append(f"({tag}) failed on {len(s[f'{tag}_failures'])} classes")
        if s["elapsed"] >= CAMPAIGN_TIME_LIMIT:
            problems.append(f"exceeded 60min target ({s['elapsed']:.0f}s)")
        detail = (
            f"{s['classes']} classes ({'closure' if s['closure'] else 'partial'}), "
            f"{s['non_euclidean']} non-Euclidean, campaign {s['elapsed']:.0f}s"
        )
        if problems:
            return False, detail + "; " + "; ".join(problems)
        return True, detail

    result = _timed(run, "8 eight-point-campaign")
    if not result.ok:
        s = ctx.campaign_stats
        only_budget = (
            s["classes"] < 500
            and not s["closure"]
            and not any(s[f"{t}_failures"] for t in ("a", "b", "c", "d"))
        )
        result.undetermined = only_budget
    return result


def criterion_9_cycle_structure(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        ctx.ensure_campaign()
        if not ctx.witnesses:
            return True, "no non-Euclidean witnesses found (vacuous)"
        for om, g, fx, witness in ctx.witnesses:
            p = Program(om, g, fx)
            if not verify_witness(p, witness):
                return False, f"witness fails re-verification on (g={g}, f={fx})"
            reduced = reduce_cycle_chordless(p, witness)
            if not verify_witness(p, reduced):
                return False, "chordless reduction broke the cycle"
            directed, undirected = find_chords(p, reduced)
            if directed:
                return False, "directed chords remain after reduction"
            if undirected:
                return False, "undirected chords present on reduced witness"
            for w in (witness, reduced):
                rep = analyze_cycle(p, w)
                if rep.edges_on_single_simplicial_tope:
                    return False, "cycle edges all on one simplicial tope"
                if rep.any_confining_tope_fully_used:
                    return False, "cycle uses every cocircuit of a confining tope"
            comps = [
                set(vs)
                for vs, isolated in very_strong_components(p)
                if not isolated
            ]
            for cert in mutations(om):
                if g not in cert.basis and fx not in cert.basis:
                    continue
                for x in cert.cocircuit_vectors():
                    for comp in comps:
                        if x in comp or -x in comp:
                            return False, (
                                f"mutation {cert.basis} cocircuit inside a "
                                f"directed cycle of (g={g}, f={fx})"
                            )
        return True, f"cycle structure verified on {len(ctx.witnesses)} witnesses"

    return _timed(run, "9 directed-cycle-structure")


def criterion_10_direct_sum(ctx: AcceptanceContext) -> CriterionResult:
    def run():
        om = w3().direct_sum(w3())
        certs = mutations(om)
        if len(certs) != 9:
            return False, f"W3+W3 has {len(certs)} mutations, expected 9"
        if len(certs) < 3 * om.n - 9:
            return False, "mutation count below 3n-9"
        for e, count in mutation_adjacency(om).items():
            if count != 6:
                return False, f"element {e} adjacency != 2*3"
        return True, "W3+W3: 9 = 3*3 mutations >= 3n-9, per-element adjacency 6"

    result = _timed(run, "10 direct-sum-counting")
    if result.ok and result.seconds >= 1.0:
        result.ok = False
        result.detail += f"; exceeded 1s target ({result.seconds:.2f}s)"
    return result


CRITERIA = {
    1: criterion_1_oracle_equivalence,
    2: criterion_2_shannon,
    3: criterion_3_realizable_euclidean,
    4: criterion_4_rank3_universality,
    5: criterion_5_lex_battery,
    6: criterion_6_preservation,
    7: criterion_7_min_mutations,
    8: criterion_8_eight_point,
    9: criterion_9_cycle_structure,
    10: criterion_10_direct_sum,
}

SUITES = {
    "oracle-equivalence": (1,),
    "realizable-shannon": (1, 2),
    "realizable-euclidean": (1, 3),
    "rank3-universality": (4,),
    "lex-suite": (5,),
    "preservation": (6,),
    "euclidean-l3": (7,),
    "eight-point": (8,),
    "cycle-structure": (8, 9),
    "direct-sum": (10,),
    "all": tuple(range(1, 11)),
}


def run_suite(
    name: str, seed: int = DEFAULT_SEED, ctx: Optional[AcceptanceContext] = None,
    campaign_nodes: int = 3000,
) -> list[CriterionResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if ctx is None:
        ctx = AcceptanceContext(seed=seed, campaign_nodes=campaign_nodes)
    return [CRITERIA[i](ctx) for i in SUITES[name]]
