"""The three workloads: seeded inputs, one timed round, and its checks.

Each workload has `make_inputs(lib, seed)` (set-up, untimed except as
setup_s), `run_round(lib, inputs)` (timed; returns the raw outputs and
the number of operations) and `check(lib, inputs, outputs, rnd)`
(untimed; returns how many operations failed a check and which global
properties failed; `rnd` numbers the round for the sampled checks).
`lib` is a namespace of freshly imported omforge modules; rounds call
the library only through its attributes, so the tracer's wrappers are
seen when they are installed.
"""

from __future__ import annotations

import random

import reference as ref

CAMPAIGN_CLASSES = 30
INVARIANCE_SAMPLES = 2
CLOSURE_R3N8_CLASSES = 135  # Finschi & Fukuda (2002), uniform rank 3, n = 8
CORPUS_SLOTS = ((3, 7), (3, 8), (3, 9), (4, 7), (4, 8), (4, 9))
CORPUS_PER_SLOT = 5
COPIES_848 = 6


def _key_invariant(lib, om, key, rng) -> bool:
    """The canonical key survives a seeded relabelling and reorientation."""
    chi = om.chirotope
    perm, flipped = ref.random_relabelling(rng, chi.n)
    text = ref.transform(chi.rank, chi.n, chi.to_string(), perm, flipped)
    copy = lib.core.cocircuits_from_chirotope(
        lib.core.Chirotope.from_string(chi.rank, chi.n, text)
    )
    return lib.canonical.canonical_form(copy) == key


def _key_ok(r: int, n: int, key: str) -> bool:
    return not key.startswith("hash:") and ref.grassmann_pluecker_ok(r, n, key)


# ---------------------------------------------------------------------------
# campaign-r4n8: the eight-point campaign cut at a class budget
# ---------------------------------------------------------------------------

class Campaign:
    name = "campaign-r4n8"

    @staticmethod
    def make_inputs(lib, seed):
        # The campaign's seed class is fixed (cyclic_om(4, 8), built inside
        # the campaign); the seed picks the classes of the invariance check.
        return {"seed": seed}

    @staticmethod
    def run_round(lib, inputs):
        ctx = lib.acceptance.AcceptanceContext(campaign_nodes=CAMPAIGN_CLASSES)
        lib.acceptance.run_eight_point_campaign(ctx)
        return ctx, ctx.campaign_stats["classes"]

    @staticmethod
    def check(lib, inputs, ctx, rnd):
        stats = ctx.campaign_stats
        classes = ctx.euclidean_rank4 + ctx.non_euclidean
        problems = []
        if stats["classes"] != CAMPAIGN_CLASSES or stats["closure"]:
            problems.append(f"campaign accepted {stats['classes']} classes")
        if len(classes) != stats["classes"]:
            problems.append("class registry does not match the class count")
        failed = set()
        for tag in "abcd":
            failed.update(stats[f"{tag}_failures"])
        keys = []
        for om in classes:
            key = lib.canonical.canonical_form(om)
            keys.append(key)
            if not _key_ok(4, 8, key):
                failed.add(key)
        for om in ctx.euclidean_rank4:
            if lib.faces.min_adjacent_mutations(om) < 3:
                failed.add(lib.canonical.canonical_form(om))
        if len(set(keys)) != len(keys):
            problems.append("two accepted classes share a key")
        rng = random.Random(inputs["seed"] * 1000 + rnd)
        picks = rng.sample(range(len(classes)), min(INVARIANCE_SAMPLES, len(classes)))
        for i in picks:
            if not _key_invariant(lib, classes[i], keys[i], rng):
                failed.add(keys[i])
        return len(failed), problems


# ---------------------------------------------------------------------------
# closure-r3n8: full rank-3 closure on 8 elements, then per-class analysis
# ---------------------------------------------------------------------------

class Closure:
    name = "closure-r3n8"

    @staticmethod
    def make_inputs(lib, seed):
        # cyclic_om(3, 8) has the all-'+' chirotope; the seed relabels and
        # reorients it, so the BFS starts from another labelled member of
        # the same class on every seed.
        rng = random.Random(seed)
        perm, flipped = ref.random_relabelling(rng, 8)
        start = ref.transform(3, 8, "+" * 56, perm, flipped)
        return {"seed": seed, "start": start}

    @staticmethod
    def run_round(lib, inputs):
        seed_om = lib.core.cocircuits_from_chirotope(
            lib.core.Chirotope.from_string(3, 8, inputs["start"])
        )
        graph = lib.classify.mutation_graph_bfs(seed_om)
        rows = [
            (
                node,
                lib.programs.all_programs_euclidean(node.om),
                lib.faces.min_adjacent_mutations(node.om),
            )
            for node in graph.nodes.values()
        ]
        return (graph, rows), len(rows)

    @staticmethod
    def check(lib, inputs, outputs, rnd):
        graph, rows = outputs
        problems = []
        if graph.exhausted_budget or len(rows) != CLOSURE_R3N8_CLASSES:
            problems.append(f"closure has {len(rows)} classes, expected 135")
        failed = set()
        for node, euclidean, L in rows:
            if not (euclidean and L >= 3 and _key_ok(3, 8, node.key)):
                failed.add(node.key)
        rng = random.Random(inputs["seed"] * 1000 + rnd)
        for node, _, _ in rng.sample(rows, min(INVARIANCE_SAMPLES, len(rows))):
            if not _key_invariant(lib, node.om, node.key, rng):
                failed.add(node.key)
        return len(failed), problems


# ---------------------------------------------------------------------------
# classify-corpus: realizable configurations plus copies of non_euclidean_848
# ---------------------------------------------------------------------------

class Corpus:
    name = "classify-corpus"

    @staticmethod
    def make_inputs(lib, seed):
        rng = random.Random(seed)
        instances = []
        for r, n in CORPUS_SLOTS:
            for _ in range(CORPUS_PER_SLOT):
                pts, chi = ref.generic_points(rng, r, n)
                instances.append({"r": r, "n": n, "points": pts, "chi": chi})
        source = lib.corpus.NON_EUCLIDEAN_848_CHI
        for _ in range(COPIES_848):
            perm, flipped = ref.random_relabelling(rng, 8)
            text = ref.transform(4, 8, source, perm, flipped)
            instances.append({"r": 4, "n": 8, "points": None, "chi": text})
        return {"seed": seed, "instances": instances}

    @staticmethod
    def run_round(lib, inputs):
        core, faces, programs = lib.core, lib.faces, lib.programs
        rows = []
        for inst in inputs["instances"]:
            if inst["points"] is not None:
                om = core.om_from_points(inst["points"])
            else:
                om = core.cocircuits_from_chirotope(
                    core.Chirotope.from_string(inst["r"], inst["n"], inst["chi"])
                )
            n_topes = len(faces.topes(om))
            faces.mutations(om)
            verdicts = programs.program_verdicts(om)
            witnesses = [
                (g, f, programs.is_euclidean(programs.Program(om, g, f)).witness)
                for (g, f), ok in verdicts.items()
                if not ok
            ]
            report = lib.classify.classify(om)
            rows.append((om, n_topes, witnesses, report))
        return rows, len(rows)

    @staticmethod
    def check(lib, inputs, rows, rnd):
        failed = 0
        copy_counts = set()
        for inst, (om, n_topes, witnesses, report) in zip(inputs["instances"], rows):
            r, n = inst["r"], inst["n"]
            ok = (
                om.chirotope.to_string() == inst["chi"]
                and n_topes == ref.uniform_tope_count(r, n)
                and report.mandel_witness is not None
                and not report.consistency_violations
            )
            if inst["points"] is not None:
                ok = ok and report.euclidean_all_programs and not witnesses
                ok = ok and report.L is not None and report.L >= r
            else:
                copy_counts.add(len(witnesses))
                table = ref.SignTable(r, n, inst["chi"])
                ok = ok and bool(witnesses) and all(
                    ref.witness_ok(
                        table, g, f,
                        [v.to_string() for v in w.vertices],
                        [z.to_string() for z in w.directions],
                    )
                    for g, f, w in witnesses
                )
            failed += not ok
        problems = []
        if len(copy_counts) != 1:
            problems.append(
                f"copies of non_euclidean_848 disagree on non-Euclidean programs: "
                f"{sorted(copy_counts)}"
            )
        return failed, problems


WORKLOADS = {w.name: w for w in (Campaign, Closure, Corpus)}
