"""Differential tests: the per-edge survival kernel against the frozen per-leaf
loops in ``reference_orderings.py``, for the exhaustive sweep and the Monte
Carlo sampler."""

import itertools
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from naenum import (BudgetExceeded, brute_force, build_debug_tree,
                    enumerate_all_orderings, maj, negation_closure, psi_exact,
                    random_negation_closed, treesearch)
from naenum.analysis import _tree_survival_samples, estimate_psi
from naenum.tree import SurvivalKernel, column_counts, row_counts
from naenum.treesearch import ExhaustiveReport
from corpus import collision_reset_instance, structure_reset_instance
from oracles import leaves, path_ids
import reference_orderings


@dataclass
class _ReferenceReport(ExhaustiveReport):
    """The report that the frozen reference builds: the package's fields,
    then its per-ordering list of (sibling orders, surviving leaves)."""

    per_ordering: list | None = None


@pytest.fixture(autouse=True)
def _reference_report(monkeypatch):
    monkeypatch.setattr(reference_orderings, "ExhaustiveReport", _ReferenceReport)


def _assert_same_report(f, t):
    got = enumerate_all_orderings(f, t)
    want = reference_orderings.enumerate_all_orderings(f, t)
    assert got.orderings == want.orderings
    assert got.total_surviving == want.total_surviving
    assert type(got.total_surviving) is int
    assert got.mean_surviving == want.mean_surviving
    assert got.edge_survival == want.edge_survival
    assert got.predicted_psi == want.predicted_psi
    return got, want


def _all_codes(kernel):
    """Every code vector, one per column, in itertools.product order."""
    vectors = list(itertools.product(*(range(k) for k in kernel.orders)))
    return np.array(vectors, dtype=np.uint8).reshape(len(vectors), -1).T


def test_exhaustive_reports_match_reference(tiny_exhaustive):
    for f, rep, _ in tiny_exhaustive:
        _assert_same_report(f, rep.tau)


def test_exhaustive_report_matches_reference_on_reset_instances():
    f = collision_reset_instance()
    _assert_same_report(f, brute_force(f).tau)
    # the structure-reset tree has 13,060,694,016 joint orderings: both
    # sweeps refuse it with the same message
    f = structure_reset_instance()
    t = brute_force(f).tau
    with pytest.raises(BudgetExceeded) as got:
        enumerate_all_orderings(f, t)
    with pytest.raises(BudgetExceeded) as want:
        reference_orderings.enumerate_all_orderings(f, t)
    assert str(got.value) == str(want.value)


def test_exhaustive_report_is_the_same_in_small_blocks(tiny_exhaustive, monkeypatch):
    # blocks of 100 orderings: 1,296 take 13 kernel calls, each with padding
    # bits in its last packed byte
    monkeypatch.setattr(treesearch, "_ORDERING_BLOCK", 100)
    swept = [(f, rep.tau) for f, rep, report in tiny_exhaustive
             if report.orderings == 1296][:10]
    assert len(swept) == 10
    for f, t in swept + [(collision_reset_instance(), None)]:
        got, _ = _assert_same_report(f, brute_force(f).tau if t is None else t)
        assert got.orderings == 1296


def test_kernel_counts_each_ordering_like_reference(tiny_exhaustive):
    instances = [(f, rep.tau) for f, rep, _ in tiny_exhaustive]
    instances.append((collision_reset_instance(), None))
    for f, t in instances:
        t = brute_force(f).tau if t is None else t
        kernel = SurvivalKernel(build_debug_tree(f, t))
        want = reference_orderings.enumerate_all_orderings(
            f, t, keep_per_ordering=True).per_ordering
        ok, alive = kernel.run(_all_codes(kernel))
        assert column_counts(alive, len(want)).tolist() == [c for _, c in want]
        # one bit per ordering, 8 to a byte
        assert ok.shape == (kernel.size, (len(want) + 7) // 8)
        assert alive.shape == (len(kernel.viable), (len(want) + 7) // 8)


def _direct_count(tree, groups, codes):
    """Surviving viable leaves of one joint ordering, leaf by leaf: every
    marker's same-label child must come after the marker's path child."""
    nodes = tree.nodes
    rank = {}
    for u, code in zip(groups, codes):
        order = list(itertools.permutations(nodes[u].children))[code]
        rank.update((c, pos) for pos, c in enumerate(order))
    count = 0
    for leaf in leaves(tree):
        if leaf.leaf_kind != "viable":
            continue
        path = path_ids(tree, leaf)
        survives = True
        for v in path[1:]:
            for w in nodes[v].markers:
                same = [c for c in nodes[w].children
                        if nodes[c].label == nodes[v].label]
                survives &= rank[same[0]] > rank[path[nodes[w].depth + 1]]
        count += survives
    return count


@pytest.mark.parametrize("f", [structure_reset_instance(),
                               random_negation_closed(8, 7, seed=1010),
                               random_negation_closed(8, 10, seed=1065)])
def test_kernel_counts_random_orderings_beyond_the_budget(f):
    # too many joint orderings to sweep (the structure-reset tree's count is
    # always 27; seed 1010's takes five values; seed 1065 has 11 surviving
    # edges with two marks each): check 203 random code vectors against a
    # leaf-by-leaf count.  203 is not a multiple of 8, so the last packed
    # byte has 5 padding bits; counting every bit of a row shows they are 0
    tree = build_debug_tree(f, brute_force(f).tau)
    kernel = SurvivalKernel(tree)
    rng = np.random.default_rng(7)
    codes = np.array([rng.integers(0, k, size=203) for k in kernel.orders],
                     dtype=np.uint8)
    ok, alive = kernel.run(codes)
    want = [_direct_count(tree, kernel.groups, col) for col in codes.T.tolist()]
    assert column_counts(alive, 203).tolist() == want
    assert int(row_counts(alive).sum()) == sum(want)
    # the root has no edge to fail: its row counts each ordering once
    assert row_counts(ok)[0] == 203 and row_counts(ok).max() == 203


@pytest.mark.parametrize("seed", [6, 5010])
def test_sampled_counts_follow_exhaustive_histogram(seed):
    # the per-ordering count of these instances is 7 or 8, each in half of
    # the 1,296 joint orderings; a chi-square test (1 degree of freedom,
    # 0.999 quantile 10.83) checks the sampler draws orderings uniformly.
    # Seed 5010's histogram moves when some sibling orders are never drawn.
    f = random_negation_closed(6, 4, seed=seed)
    t = brute_force(f).tau
    kernel = SurvivalKernel(build_debug_tree(f, t))
    codes = _all_codes(kernel)
    orderings = codes.shape[1]
    exact = Counter(column_counts(kernel.run(codes)[1], orderings).tolist())
    assert exact == {7: 648, 8: 648}
    samples = 4000
    drawn = Counter(_tree_survival_samples(f, t, samples, seed=12).tolist())
    assert set(drawn) <= set(exact)
    chi2 = sum((drawn[c] - samples * k / orderings) ** 2
               / (samples * k / orderings) for c, k in exact.items())
    assert chi2 < 10.83, (drawn, chi2)


def test_sampler_draws_each_sibling_order_equally_often(monkeypatch):
    # every 3-child group's code is uniform on the 6 orders, and two groups'
    # codes are independent: chi-square at the 0.9999 quantile, 5 and 35
    # degrees of freedom (25.74, 74.93), over 41 tests
    drawn = []
    run = SurvivalKernel.run
    monkeypatch.setattr(SurvivalKernel, "run",
                        lambda self, codes: drawn.append(codes.copy()) or run(self, codes))
    f = negation_closure(maj(8, 3))
    _tree_survival_samples(f, 4, 1800, seed=4)
    codes = np.concatenate(drawn, axis=1)
    assert codes.shape[1] == 1800 and codes.max() == 5

    def chi2(observed):
        expected = observed.sum() / observed.size
        return float(((observed - expected) ** 2 / expected).sum())

    for row in codes[:40]:
        assert chi2(np.bincount(row, minlength=6)) < 25.74
    joint = np.bincount(codes[0] * 6 + codes[-1], minlength=36)
    assert chi2(joint) < 74.93


def test_sampled_means_on_reset_and_extremal_instances():
    for f, t in ((collision_reset_instance(), None),
                 (structure_reset_instance(), None),
                 (negation_closure(maj(12, 3)), 6)):
        t = brute_force(f).tau if t is None else t
        exact = float(psi_exact(build_debug_tree(f, t)))
        est = estimate_psi(f, t, samples=2000, seed=3, method="tree")
        assert abs(est.mean - exact) <= 3 * est.std_error + 1e-9, (est, exact)


def test_tree_sampler_peak_memory():
    # the per-edge kernel keeps a batch of 256 orderings as a few byte
    # matrices over the 9,841-node tree; the per-leaf sampler it replaced
    # peaked at ~103 MB here
    f = negation_closure(maj(16, 3))
    tracemalloc.start()
    try:
        est = estimate_psi(f, 8, 2000, 5, "tree")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.mean == 1296.0
    assert peak < 24 * 10 ** 6, peak
