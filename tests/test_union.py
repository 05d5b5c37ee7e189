"""Exact oracles at any n: disjoint unions and relabellings.

The weight-tau solutions of a disjoint union are exactly the unions of one
weight-tau solution per side, so the brute-force oracle on each side gives the
exact solution set of a union too large for it.  A union also repeats a reset
instance's structure below many depth-t0 paths.  Relabelling the variables
changes the tree the search builds, but maps the solution set exactly.
"""

import random

import pytest

import naenum.treesearch as treesearch
from naenum import (OrderingSource, brute_force, collect_solutions, maj,
                    negation_closure)
from corpus import (collision_reset_instance, disjoint_union,
                    heavy_overflow_instance, heavy_reset_instance, relabel,
                    structure_reset_instance, twomark_reset_instance)

RESET_INSTANCES = (collision_reset_instance, structure_reset_instance,
                   heavy_overflow_instance, heavy_reset_instance,
                   twomark_reset_instance)
ORDERINGS = (OrderingSource.fixed(), OrderingSource.random(3))


def _product(*fs):
    """tau and the sorted weight-tau solutions of ``disjoint_union(*fs)``,
    built from the oracle's sets of its sides."""
    n = tau = 0
    sols = [()]
    for f in fs:
        rep = brute_force(f)
        sols = [a + tuple(v + n for v in b) for a in sols for b in rep.gamma]
        n += f.n
        tau += rep.tau
    return tau, sorted(sols)


# (sides, n, t, solutions, fixed-ordering stats: (nodes_visited,
# superfluous_skips, leaves_visited), profiles recorded, base resets)
UNIONS = {
    # the base reset of the heavy side stays; the twomark side needs none
    "heavy+twomark": ((heavy_reset_instance, twomark_reset_instance),
                      27, 11, 342, (6550, 5962, 980), 208, 1),
    "twomark+twomark": ((twomark_reset_instance, twomark_reset_instance),
                        28, 12, 324, (4140, 3993, 402), 64, 0),
    # the twomark witness sits below each of the 27 depth-t0 paths of maj
    "maj12+twomark": ((lambda: negation_closure(maj(12, 3)),
                       twomark_reset_instance), 26, 12, 3888,
                      (10219, 5373, 4320), 216, 0),
    # free-stage shoots meet heavy clauses, none past its budget
    "maj12+heavy_overflow": ((lambda: negation_closure(maj(12, 3)),
                              heavy_overflow_instance), 25, 10, 4320,
                             (24529, 10773, 12528), 243, 0),
}


@pytest.mark.parametrize("name", sorted(UNIONS))
def test_union_solutions_are_the_product_of_the_sides(name):
    sides, n, t, count, tree, profiles, base_resets = UNIONS[name]
    fs = [side() for side in sides]
    f = disjoint_union(*fs)
    tau, want = _product(*fs)
    assert (f.n, tau, len(want)) == (n, t, count)
    for ordering in ORDERINGS:
        sols, stats = collect_solutions(f, t, ordering)
        assert sorted(sols) == want, ordering
        assert set(stats.resets) == {"base"}, ordering
        if ordering.kind == "fixed":
            assert (stats.nodes_visited, stats.superfluous_skips,
                    stats.leaves_visited) == tree
            assert len(stats.profiles) == profiles
            assert stats.resets == {"base": base_resets}


# heavy clauses pushed on the free stage below u0, fixed ordering
HEAVY_PUSHES = {"heavy+twomark": 198, "twomark+twomark": 147,
                "maj12+twomark": 2_781, "maj12+heavy_overflow": 10_260}


@pytest.mark.parametrize("name", sorted(HEAVY_PUSHES))
def test_heavy_pushes_under_the_fixed_ordering(name, monkeypatch):
    # below u0 the engine tests a width-3 free-stage clause's marks and U
    # itself, and hands _stage_checks only a live clause with one or two
    # variables marked once and none twice; each heavy one is pushed
    real = treesearch._Engine._stage_checks
    pushes = []

    def counted(self, labels, stage, fals_var, U):
        heavy = real(self, labels, stage, fals_var, U)
        pushes.append(heavy)
        return heavy

    monkeypatch.setattr(treesearch._Engine, "_stage_checks", counted)
    sides, _, t, *_ = UNIONS[name]
    collect_solutions(disjoint_union(*(side() for side in sides)), t)
    assert sum(pushes) == HEAVY_PUSHES[name]


def test_corpus_unions_with_a_reset_instance(corpus500):
    # every 25th corpus instance beside the collision instance: each of these
    # unions, n = 14..22, reaches a base reset under both orderings
    g = collision_reset_instance()
    for f, _ in corpus500[::25]:
        u = disjoint_union(f, g)
        tau, want = _product(f, g)
        for ordering in ORDERINGS:
            sols, stats = collect_solutions(u, tau, ordering)
            assert sorted(sols) == want, (f, ordering)
            assert stats.resets["base"] >= 1, (f, ordering)


@pytest.mark.parametrize("make", RESET_INSTANCES, ids=lambda g: g.__name__)
def test_relabelling_maps_the_solution_set(make):
    f = make()
    rep = brute_force(f)
    rng = random.Random(make.__name__)
    for _ in range(4):
        perm = list(range(1, f.n + 1))
        rng.shuffle(perm)
        want = sorted(tuple(sorted(perm[v - 1] for v in s)) for s in rep.gamma)
        g = relabel(f, perm)
        for seed in (1, 2):
            sols, stats = collect_solutions(g, rep.tau, OrderingSource.random(seed))
            assert sorted(sols) == want, (perm, seed)
            assert set(stats.resets) == {"base"}
