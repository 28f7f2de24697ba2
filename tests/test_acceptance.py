"""Acceptance gate: every criterion at its stated budget, one
pass/fail line each (run pytest with -s to watch them stream)."""

import importlib
from collections import Counter

import pytest

from omforge.acceptance import (
    CRITERIA,
    AcceptanceContext,
    DEFAULT_SEED,
    run_eight_point_campaign,
)
from omforge.canonical import canonical_form
from omforge.faces import min_adjacent_mutations, mutation_bases

# the modules, which the package's functions of the same names shadow
canonical_module = importlib.import_module("omforge.canonical")
classify_module = importlib.import_module("omforge.classify")


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext(seed=DEFAULT_SEED, campaign_nodes=3000)


def _check(result):
    print(result.line())
    assert result.ok, result.line()


def test_criterion_01_oracle_equivalence(ctx):
    _check(CRITERIA[1](ctx))


def test_criterion_02_realizable_shannon(ctx):
    _check(CRITERIA[2](ctx))


def test_criterion_03_realizable_euclidean(ctx):
    _check(CRITERIA[3](ctx))


def test_criterion_04_rank3_universality(ctx):
    _check(CRITERIA[4](ctx))


def test_criterion_05_lex_battery(ctx):
    _check(CRITERIA[5](ctx))


def test_criterion_06_preservation(ctx):
    _check(CRITERIA[6](ctx))


def test_criterion_07_euclidean_L3(ctx):
    _check(CRITERIA[7](ctx))


def test_criterion_08_eight_point(ctx):
    _check(CRITERIA[8](ctx))


def test_eight_point_campaign_counts(ctx):
    # the campaign's exact answers, from the run the criteria share
    ctx.ensure_campaign()
    stats = ctx.campaign_stats
    assert stats["closure"]
    assert stats["classes"] == 2628
    assert stats["non_euclidean"] == 18
    assert len(ctx.witnesses) == 18


def test_paper_statistics_of_the_eight_point_classes(ctx):
    # L (the least number of mutations through an element) and the
    # mutation count over the campaign's classes: L >= 4 on every
    # Euclidean class, and one non-Euclidean class with L = 3
    ctx.ensure_campaign()

    def statistics(oms):
        counts = [len(mutation_bases(om)) for om in oms]
        ells = Counter(min_adjacent_mutations(om) for om in oms)
        return dict(sorted(ells.items())), min(counts), max(counts)

    assert statistics(ctx.euclidean_rank4) == (
        {4: 1120, 5: 903, 6: 460, 7: 107, 8: 13, 9: 2, 10: 5}, 8, 20
    )
    assert statistics(ctx.non_euclidean) == ({3: 1, 4: 9, 6: 6, 7: 2}, 7, 16)


def test_cut_campaign_stops_at_its_budget(count_calls):
    # the search stops once it refuses its 31st class: it keys and flips
    # the children of the nodes it expanded, not of every queued node
    # (which took 134 key searches and 133 flips)
    searches = count_calls(canonical_module, "key_search")
    flips = count_calls(classify_module, "flip_basis")
    cut = AcceptanceContext(seed=DEFAULT_SEED, campaign_nodes=30)
    run_eight_point_campaign(cut)
    assert cut.campaign_stats["classes"] == 30
    assert not cut.campaign_stats["closure"]
    assert len(searches) <= 38
    assert len(flips) <= 37


def test_eight_point_classes_are_closed_under_duality(ctx):
    # the dual of a uniform rank-4 oriented matroid on 8 elements has
    # rank 4 again, so duality permutes the campaign's classes; the two
    # class lists hold the campaign's classes and nothing else
    ctx.ensure_campaign()
    members = ctx.euclidean_rank4 + ctx.non_euclidean
    assert len(members) == 2628
    classes = {canonical_form(om): om for om in members}
    assert len(classes) == 2628
    duals = {key: canonical_form(om.dual()) for key, om in classes.items()}
    assert sum(1 for d in duals.values() if d not in classes) == 0
    assert sum(1 for key, d in duals.items() if key == d) == 494


def test_criterion_09_cycle_structure(ctx):
    _check(CRITERIA[9](ctx))


def test_criterion_10_direct_sum(ctx):
    _check(CRITERIA[10](ctx))
