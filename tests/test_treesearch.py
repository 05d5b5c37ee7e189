import itertools
import math
import os
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from naenum import (BudgetExceeded, Formula,
                    InputNotClosed, InternalInvariantError, OrderingSource,
                    ParameterError, PreconditionViolated, WidthError,
                    brute_force, build_debug_tree, check_invariants,
                    collect_solutions, count_solutions,
                    enumerate_all_orderings, enumerate_solutions, maj,
                    negation_closure, psi_exact, random_negation_closed,
                    verify_enumeration)
from naenum import treesearch
from naenum.cli import main as cli_main
from naenum.selection import (TWOMARK, TwomarkContext, build_stage_profile,
                              monotone_index, twomark_context)
from naenum.tree import SurvivalKernel, column_counts
from naenum.treesearch import _DRAW_LIMIT, _PERMS, _Engine
from corpus import (collision_reset_instance, disjoint_union,
                    heavy_overflow_instance, heavy_reset_instance,
                    structure_reset_instance, twomark_reset_instance)
from oracles import disjoint_stage, first_repeat, leaves, q_of, satisfies
from test_engine_golden import _generator as golden_generator


@pytest.mark.parametrize("n,count", [(4, 6), (8, 36), (12, 216)])
def test_maj_counts(n, count):
    f = negation_closure(maj(n, 3))
    sols, stats = collect_solutions(f, n // 2)
    assert len(sols) == count == len(set(sols))
    assert sorted(sols) == list(brute_force(f, t=n // 2).weight_t_solutions)


def test_empty_formula_weight_zero():
    sols, stats = collect_solutions(Formula.of(3, []), 0)
    assert sols == [()]
    assert stats.leaves_visited == 1


def test_input_validation():
    with pytest.raises(InputNotClosed):
        enumerate_solutions(maj(4, 3), 2)
    wide = Formula.of(5, [(1, 2, 3, 4)])
    with pytest.raises(WidthError):
        enumerate_solutions(wide, 2)
    with pytest.raises(ParameterError):
        enumerate_solutions(negation_closure(maj(4, 3)), 9)
    with pytest.raises(ParameterError):
        OrderingSource("exhaustive")
    with pytest.raises(ParameterError):
        OrderingSource("Random", 3)


def test_precondition_detected():
    f = negation_closure(maj(4, 3))
    with pytest.raises(PreconditionViolated):
        enumerate_solutions(f, 3)  # weight-2 transversals exist


def test_pruning_vs_full_tree_on_maj4():
    f = negation_closure(maj(4, 3))
    tree = build_debug_tree(f, 2)
    viable = [u for u in leaves(tree) if u.leaf_kind == "viable"]
    assert len(viable) == 9          # repeated transversals in the full tree
    _, stats = count_solutions(f, 2)
    assert stats.leaves_visited == 6  # pruned to one leaf per transversal
    assert stats.superfluous_skips == 3


def test_seed_determinism():
    f = random_negation_closed(10, 7, seed=3)
    t = brute_force(f).tau
    a = collect_solutions(f, t, OrderingSource.random(42))
    b = collect_solutions(f, t, OrderingSource.random(42))
    assert a[0] == b[0]
    assert a[1].as_dict() == b[1].as_dict()
    c = collect_solutions(f, t, OrderingSource.random(43))
    assert sorted(c[0]) == sorted(a[0])  # same set, possibly another order


def test_exactly_once_many_seeds(corpus500):
    for f, rep in corpus500[:12]:
        expect = list(brute_force(f, t=rep.tau).weight_t_solutions)
        for seed in range(100):
            sols, _ = collect_solutions(f, rep.tau, OrderingSource.random(seed))
            assert sorted(sols) == expect
            assert len(set(sols)) == len(sols)


HEAVY_BASE_REASON = "2 disjoint heavy clauses outside the twomark pool"


def test_reset_instances_still_enumerate():
    heavy = heavy_reset_instance()
    for f in (collision_reset_instance(), structure_reset_instance(), heavy):
        rep = brute_force(f)
        sols, stats = collect_solutions(f, rep.tau)
        assert verify_enumeration(f, rep.tau, sols).passed
        assert stats.resets["base"] >= 1
        assert stats.reset_events
        if f is heavy:
            assert [e["reason"] for e in stats.reset_events] == [HEAVY_BASE_REASON]


def test_heavy_reset_instance_overflows_into_one_base_reset():
    # the first engine input known to reach _heavy_overflow: a
    # controlled-route shoot (t0 = 2) meets more disjoint heavy clauses
    # outside the twomark pool than its budget allows.  The pruned search,
    # the debug tree and the parallel driver each settle it with one reset.
    f = heavy_reset_instance()
    assert disjoint_stage(f)[1] == 2 and brute_force(f).tau == 5
    expect = list(brute_force(f, t=5).weight_t_solutions)
    assert len(expect) == 19
    for ordering in [OrderingSource.fixed()] + [OrderingSource.random(s)
                                                for s in range(20)]:
        sols, _ = collect_solutions(f, 5, ordering)
        assert sorted(sols) == expect
    tree = build_debug_tree(f, 5)
    assert check_invariants(tree) == []
    for stats in (collect_solutions(f, 5)[1], tree.stats,
                  collect_solutions(f, 5, parallel=2)[1]):
        assert stats.resets == {"base": 1}
        assert [e["reason"] for e in stats.reset_events] == [HEAVY_BASE_REASON]
        assert (stats.route, stats.t0) == ("controlled", 3)


def test_twomark_reset_instance_restarts_the_attempt():
    # a free-stage shoot below the depth-t0 path (1, 4) meets two disjoint
    # heavy clauses of the twomark pool.  A greedy twomark collection there
    # holds one clause, (3, 7, 11); the maximum one holds both, so no attempt
    # restarts, under every ordering and in every driver
    f = twomark_reset_instance()
    assert brute_force(f).tau == 6
    expect = list(brute_force(f, t=6).weight_t_solutions)
    assert len(expect) == 18
    no_reset = {"base": 0}
    for ordering in [OrderingSource.fixed()] + [OrderingSource.random(s)
                                                for s in range(20)]:
        sols, stats = collect_solutions(f, 6, ordering)
        assert sorted(sols) == expect
        assert stats.resets == no_reset and stats.reset_events == []
        at_u0 = [p for p in stats.profiles if p["q_u0"] == [1, 4]]
        assert [p["m_r_prime"] for p in at_u0] == [2]
    tree = build_debug_tree(f, 6)
    assert check_invariants(tree) == []
    assert tree.stats.resets == no_reset
    sols, stats = collect_solutions(f, 6, parallel=2)
    assert sorted(sols) == expect and stats.resets == no_reset
    # heavy_overflow_instance() has the same pool at (1, 4); its debug tree
    # takes the maximum collection there at once
    tree = build_debug_tree(heavy_overflow_instance(), 4)
    assert check_invariants(tree) == [] and psi_exact(tree) == Fraction(105, 2)
    assert tree.stats.resets == no_reset
    assert [p["m_r_prime"] for p in tree.stats.profiles if p["q_u0"] == [1, 4]] == [2]


def _twomark_check(cnt: dict, U: int, fals_var=3, debug_assertions=True):
    """``_stage_checks`` of a twomark node of ``heavy_overflow_instance()``
    below the path (1, 4, 2, 5), with the engine's controlled-stage state,
    the label mark counts and the falsifying mask set by hand.  A twomark
    node pushes no heavy clause."""
    f = heavy_overflow_instance()
    base, _ = disjoint_stage(f)
    prof = build_stage_profile(monotone_index(f), base, (1, 4))
    k2 = twomark_context(prof, (2, 5))      # both onemark edges took X-tilde
    assert k2.clauses[0] == (3, 8, 12) and k2.fals_vars[0] == 3
    eng = _Engine(f, 4, OrderingSource.fixed(), base=base,
                  debug_assertions=debug_assertions)
    eng.label_cnt = [cnt.get(v, 0) for v in range(f.n + 1)]
    eng.prof, eng.k2, eng.heavies = prof, k2, []
    assert eng._stage_checks((3, 8, 12), TWOMARK, fals_var, U) is False
    assert eng.heavies == []


def test_twomark_guards_fire_on_their_violations():
    # at the boundary: live marks 0 and 1 carry mass exactly 3/2, and the
    # falsifying child's marks do not count
    _twomark_check({3: 2, 8: 1}, 1 << 3)
    _twomark_check({3: 61, 8: 0, 12: 1}, 1 << 3)
    with pytest.raises(InternalInvariantError, match="designated edge 3 not falsifying"):
        _twomark_check({3: 2, 8: 1}, 0)
    with pytest.raises(InternalInvariantError, match="designated edge 7 not falsifying"):
        _twomark_check({3: 2, 8: 1}, 1 << 3 | 1 << 7, fals_var=7)
    with pytest.raises(InternalInvariantError, match=r"\(3, 8, 12\): mass 2 > 3/2"):
        _twomark_check({3: 2}, 1 << 3)
    # the guards are debug assertions
    _twomark_check({3: 2}, 0, debug_assertions=False)


def test_heavy_overflow_without_a_witness_is_an_invariant_failure(monkeypatch):
    # random_negation_closed(10, 12, seed=21): with every heavy budget cut by
    # one, a shoot overflows on a single heavy clause outside the twomark
    # pool, which witnesses no larger family.  The run must end there.
    f = random_negation_closed(10, 12, seed=21)
    real = treesearch.twomark_context

    def cut(prof, onemark_labels):
        k2 = real(prof, onemark_labels)
        return TwomarkContext(k2.clauses, k2.fals_vars, k2.ell,
                              k2.heavy_budget - 1)

    monkeypatch.setattr(treesearch, "twomark_context", cut)
    with pytest.raises(InternalInvariantError,
                       match="exceeded without a witness: 0 pool heavies, 1 outside"):
        collect_solutions(f, 4)


def test_mass_five_halves_node_is_an_invariant_failure(monkeypatch):
    # corpus500[19], random_negation_closed(7, 3, seed=1019): base (1, 2, 5),
    # F1 = C1 = {(2, 4, 7)}.  With C1 emptied, (2, 4, 7) reaches the free
    # stage with one variable marked once: a node that only a non-maximal
    # onemark collection exposes.  It must end the run, with no retry.
    f = negation_closure(Formula.of(7, [(1, 2, 5), (1, 5, 7), (2, 4, 7)]))
    real = treesearch.build_stage_profile
    built = []

    def dropped(*args, **kw):
        prof = real(*args, **kw)
        assert prof.c1 == ((2, 4, 7),)
        prof.c1 = prof.c1[:-1]
        prof.c1_levels = prof.c1_levels[:-1]
        built.append(prof)
        return prof

    monkeypatch.setattr(treesearch, "build_stage_profile", dropped)
    with pytest.raises(InternalInvariantError, match=r"\(2, 4, 7\) of mass 5/2"):
        collect_solutions(f, 2)
    assert len(built) == 1


def test_leftmost_leaf_property():
    # under the canonical fixed ordering, the surviving leaf for each solution
    # is the leftmost full-tree leaf carrying that solution set
    for seed in (3, 9, 17):
        f = random_negation_closed(8, 6, seed=seed)
        rep = brute_force(f)
        if rep.tau is None:
            continue
        tree = build_debug_tree(f, rep.tau)
        rank = {}
        for u in tree.nodes:
            for pos, c in enumerate(u.children):
                rank[c] = pos
        # evaluate superfluousness under the identity ordering
        paths = {0: [0]}
        for u in tree.nodes[1:]:
            paths[u.id] = paths[u.parent] + [u.id]
        alive = {0: True}
        leftmost: dict[tuple, int] = {}
        for u in tree.nodes[1:]:
            superf = False
            for w_id in u.markers:
                w = tree.nodes[w_id]
                x_child = next(c for c in w.children
                               if tree.nodes[c].label == u.label)
                path_child = paths[u.id][w.depth + 1]
                if rank[x_child] < rank[path_child]:
                    superf = True
                    break
            alive[u.id] = alive[u.parent] and not superf and not u.falsifying
            if alive[u.id] and satisfies(f, q_of(tree, u)):
                q = tuple(sorted(q_of(tree, u)))
                assert q not in leftmost, "second surviving leaf for a solution"
                leftmost[q] = u.id
        # every full-tree leaf of that solution set lies at or right of it
        for u in tree.nodes[1:]:
            if satisfies(f, q_of(tree, u)):
                q = tuple(sorted(q_of(tree, u)))
                assert leftmost[q] <= u.id


def test_exhaustive_orderings_single_node():
    f = negation_closure(Formula.of(3, [(1, 2, 3)]))
    report = enumerate_all_orderings(f, 1)
    assert report.orderings == 6
    assert report.mean_surviving == 3


def test_exhaustive_orderings_identities(tiny_exhaustive):
    # no surviving edge of the exhaustive corpus carries two markers; this
    # closure has two such edges, so the 2^-marks identity is checked at 2
    twice = enumerate_all_orderings(negation_closure(Formula.of(
        8, [(-7, 2, 3), (-7, 5, 6), (-2, 5), (-1, 2), (1, 2, 4), (1, 5, 7)])), 3)
    assert twice.orderings == 432 and twice.mean_surviving == Fraction(13, 4)
    assert any(v.marks >= 2 for v in twice.tree.nodes[1:] if not v.falsifying)
    for report in [r for _, _, r in tiny_exhaustive[:10]] + [twice]:
        assert report.mean_surviving == report.predicted_psi
        for v in report.tree.nodes[1:]:
            if not v.falsifying:
                assert report.edge_survival[v.id] == Fraction(1, 2 ** v.marks)


def test_exhaustive_budget():
    f = negation_closure(maj(8, 3))
    with pytest.raises(BudgetExceeded):
        enumerate_all_orderings(f, 4, budget=10 ** 6)


def test_exhaustive_budget_refuses_before_building_the_kernel(monkeypatch):
    def unbuilt(tree):
        raise AssertionError("kernel built for a refused sweep")

    monkeypatch.setattr(treesearch, "SurvivalKernel", unbuilt)
    with pytest.raises(BudgetExceeded, match="orderings exceed budget 1000"):
        enumerate_all_orderings(negation_closure(maj(8, 3)), 4, budget=1000)


def test_exhaustive_mean_bound_on_maj4():
    f = negation_closure(maj(4, 3))
    report = enumerate_all_orderings(f, 2)
    assert report.mean_surviving <= 6  # equality: extremal instance
    assert report.mean_surviving == 6


def test_per_ordering_records():
    # each of the root's 6 sibling orders keeps all three leaves
    import numpy as np

    f = negation_closure(Formula.of(3, [(1, 2, 3)]))
    kernel = SurvivalKernel(build_debug_tree(f, 1))
    assert kernel.orders.tolist() == [6]
    alive = kernel.run(np.arange(6, dtype=np.uint8)[None, :])[1]
    assert column_counts(alive, 6).tolist() == [3] * 6
    assert enumerate_all_orderings(f, 1).total_surviving == 18


def _same_run(got, want) -> bool:
    """Whether two ``collect_solutions`` results hold the same solutions in
    the same order and the same stats."""
    return got[0] == want[0] and got[1].as_dict() == want[1].as_dict()


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_matches_sequential(workers):
    f = negation_closure(maj(8, 3))
    assert _same_run(collect_solutions(f, 4, OrderingSource.random(5), parallel=workers),
                     collect_solutions(f, 4, OrderingSource.random(5)))
    # an empty clause ends the search at the root, in either driver
    g = Formula.of(6, [(1, 2, 3), (-1, -2, -3), ()])
    assert _same_run(collect_solutions(g, 2, parallel=workers), collect_solutions(g, 2))
    # the unit clause (-1) falsifies the root child 1, which the driver
    # counts itself; below 2 and 3 the clause (1) leaves only skipped edges
    h = Formula.of(4, [(1, 2, 3), (-1, -2, -3), (1,), (-1,)])
    assert _same_run(collect_solutions(h, 2, parallel=workers), collect_solutions(h, 2))
    stats = collect_solutions(h, 2)[1]
    assert (stats.falsified_leaves, stats.superfluous_skips) == (1, 2)


def test_parallel_reset_instance():
    # every reset instance under the fixed ordering and seeds 0-2: the
    # driver merges its workers, resets included, into the sequential run
    for make in RESET_INSTANCES:
        f = make()
        t = brute_force(f).tau
        for ordering in [OrderingSource.fixed()] + [OrderingSource.random(s)
                                                    for s in range(3)]:
            assert _same_run(collect_solutions(f, t, ordering, parallel=2),
                             collect_solutions(f, t, ordering)), (make.__name__, ordering)


@pytest.mark.parametrize("t", [1, 2])
def test_parallel_matches_sequential_seeded_at_shallow_depths(t):
    # at t = 1 the root is the last level and draws no order; at t = 2 the
    # root draws and its children do not.  Either way the driver orders the
    # root as the sequential run does and reports that run; the collision
    # instance resets its base at t = 2
    cases = [negation_closure(maj(8, 3)), collision_reset_instance(),
             structure_reset_instance(),
             negation_closure(Formula.of(6, [(1, 2, 3), (4, 5, 6)][:t]))]
    emitted = 0
    for f in cases:
        for seed in (0, 1, 2):
            ordering = OrderingSource.random(seed)
            seq = collect_solutions(f, t, ordering)
            assert _same_run(collect_solutions(f, t, ordering, parallel=2), seq), (f.n, seed)
            emitted += len(seq[0])
    assert emitted


def test_parallel_merges_truncated_profiles(monkeypatch):
    # maj12+heavy_overflow of test_union.py records 243 profiles; below a
    # lowered cap the driver cuts the merged list and flags it as the
    # sequential run does, whether or not a worker saw the lowered cap
    monkeypatch.setattr(treesearch, "PROFILE_CAP", 5)
    f = disjoint_union(negation_closure(maj(12, 3)), heavy_overflow_instance())
    seq = collect_solutions(f, 10)
    assert seq[1].profiles_truncated and len(seq[1].profiles) == 5
    assert _same_run(collect_solutions(f, 10, parallel=2), seq)


@pytest.fixture
def in_process_pool(monkeypatch):
    """A stand-in for ``ProcessPoolExecutor`` that runs the workers in this
    process, so no process starts; yields the pool sizes asked for."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_parallel_pool_is_capped_at_the_core_count(in_process_pool):
    # the fork start method launches every worker on the first submit, so
    # the pool never outgrows the cores or the tasks, whatever the caller
    # asks for.  A worker's base reset reaches the driver.
    f = collision_reset_instance()
    t = brute_force(f).tau
    sols, stats = collect_solutions(f, t, parallel=10 ** 6)
    assert sols == collect_solutions(f, t)[0]
    assert stats.resets["base"] == 1
    sizes = in_process_pool
    assert len(sizes) == 2 and all(1 <= s <= os.cpu_count() for s in sizes)


def test_parallel_worker_precondition_reaches_the_caller(in_process_pool):
    # a root child's subtree holds a transversal lighter than t: the driver
    # raises the worker's violation with the sequential run's message
    f = negation_closure(maj(4, 3))
    for parallel in (1, 2):
        with pytest.raises(PreconditionViolated,
                           match=re.escape("[1, 2] is a transversal of weight 2 < t=3")):
            count_solutions(f, 3, parallel=parallel)
    assert in_process_pool == [2]


def test_parallel_must_be_an_integer():
    with pytest.raises(ParameterError, match="parallel=1.5 is not an integer"):
        collect_solutions(negation_closure(maj(4, 3)), 2, parallel=1.5)


def test_parallel_must_be_at_least_one():
    f = negation_closure(maj(4, 3))
    for k in (0, -3):
        with pytest.raises(ParameterError, match=f"parallel={k} is below 1"):
            count_solutions(f, 2, parallel=k)


def test_subtree_workers_in_process_rebuild_the_sequential_run():
    # the parallel driver's workers, run in this process: their solution
    # lists, one per live root child in search order, concatenate to the
    # sequential run's emission order
    f = heavy_overflow_instance()
    for ordering in (OrderingSource.fixed(), OrderingSource.random(7)):
        eng = _Engine(f, 4, ordering)
        roots = [x for x in eng._order_children(0, eng.base[0])
                 if not eng.unit0 >> x & 1]
        assert len(roots) > 1
        sols = []
        for x in roots:
            _, buf, stop = treesearch._subtree_worker(
                (f, 4, ordering, True, None, eng.base, x))
            assert stop is None
            sols += buf
        assert sols == collect_solutions(f, 4, ordering)[0]


RESET_INSTANCES = (collision_reset_instance, structure_reset_instance,
                   heavy_overflow_instance, heavy_reset_instance,
                   twomark_reset_instance)


def _engine_cases(corpus500) -> list[tuple[Formula, int]]:
    return [(f, rep.tau) for f, rep in corpus500] + [
        (f, brute_force(f).tau) for f in (g() for g in RESET_INSTANCES)]


def test_count_matches_enumerate(corpus500):
    f = negation_closure(maj(8, 3))
    n1, st = count_solutions(f, 4, OrderingSource.random(1))
    sols, _ = collect_solutions(f, 4, OrderingSource.random(1))
    assert n1 == len(sols) == 36
    # a count keeps no list, and the search it runs is the same
    for f, t in _engine_cases(corpus500):
        for ordering in (OrderingSource.fixed(), OrderingSource.random(1),
                         OrderingSource.random(2)):
            for debug in (True, False):
                count, cstats = count_solutions(f, t, ordering, debug_assertions=debug)
                sols, stats = collect_solutions(f, t, ordering, debug_assertions=debug)
                assert count == len(sols)
                assert cstats.as_dict() == stats.as_dict()


def test_count_draws_no_last_level_order(monkeypatch):
    # a depth-t leaf's siblings carry other labels, so its outcome does not
    # depend on their order: neither a count nor a collect draws an order at
    # depth t - 1.  Both draw the same orders above it, from the same
    # hashes, and search the same tree
    f = negation_closure(maj(8, 3))
    real_order, real_mix = _Engine._order_children, treesearch._splitmix64
    depths, mixes = [], []
    monkeypatch.setattr(_Engine, "_order_children",
                        lambda eng, depth, labels: depths.append(depth)
                        or real_order(eng, depth, labels))
    monkeypatch.setattr(treesearch, "_splitmix64",
                        lambda z: mixes.append(z) or real_mix(z))
    for seed in (1, 2, 5, 11):
        runs = []
        for search in (count_solutions, collect_solutions):
            depths.clear()
            mixes.clear()
            _, stats = search(f, 4, OrderingSource.random(seed))
            runs.append((list(depths), list(mixes), stats.as_dict()))
        (counted, count_mixes, cstats), (collected, collect_mixes, stats) = runs
        assert set(counted) == {0, 1, 2} and counted == collected
        assert len(count_mixes) > 1 and count_mixes == collect_mixes
        assert cstats == stats


def test_seeded_collect_emits_a_leaf_parent_in_clause_order(monkeypatch):
    # a depth-(t - 1) node draws no order, so under any seed it emits its
    # solutions in the order of its clause's variables, which is ascending;
    # at t = 1 the root is that node
    sols, _ = collect_solutions(negation_closure(Formula.of(3, [(1, 2, 3)])),
                                1, OrderingSource.random(4))
    assert sols == [(1,), (2,), (3,)]
    # each leaf parent's emitted labels, read off the buffer's Q masks
    real = _Engine._node
    groups = []

    def node(eng, depth, Q, *rest):
        start = len(eng.buffer)
        real(eng, depth, Q, *rest)
        if depth == eng.t - 1:
            groups.append([(m & ~Q).bit_length() - 1 for m in eng.buffer[start:]])

    monkeypatch.setattr(_Engine, "_node", node)
    for f, t in [(negation_closure(maj(8, 3)), 4), (heavy_overflow_instance(), 4),
                 (collision_reset_instance(), 2)]:
        for seed in (1, 2, 3):
            groups.clear()
            collect_solutions(f, t, OrderingSource.random(seed))
            assert any(len(g) > 1 for g in groups)
            assert all(g == sorted(g) for g in groups), (f.n, seed)


def _traced_peak(call):
    """``call()`` and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_keeps_no_solution_buffer():
    # a buffer of the 1,296 solutions alone would take ~150 KiB
    f = negation_closure(maj(16, 3))
    (count, _), peak = _traced_peak(
        lambda: count_solutions(f, 8, debug_assertions=False))
    assert count == 1296
    assert peak < 32 * 1024, peak


def test_node_masks_match_step(corpus500, monkeypatch):
    # _node steps into its children inline; every node it enters holds the
    # masks that _step, chained along the node's path, gives
    real = _Engine._node
    entries = []

    def node(eng, depth, Q, P, U, *rest):
        entries.append((eng, depth, Q, P, U, tuple(eng.path[:depth])))
        real(eng, depth, Q, P, U, *rest)

    monkeypatch.setattr(_Engine, "_node", node)
    # mixed-sign clauses wake positive clauses when their negated variables
    # are entered; the monotone corpora have none of those
    rng = random.Random(11)
    mixed = []
    while len(mixed) < 100:
        n = rng.randint(4, 10)
        g = negation_closure(Formula.of(n, [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), rng.randint(1, 3))]
            for _ in range(rng.randint(1, 2 * n))]))
        tau = brute_force(g).tau
        if tau is not None and tau >= 2:
            mixed.append((g, tau))
    for f, t in _engine_cases(corpus500) + mixed:
        for ordering in (OrderingSource.fixed(), OrderingSource.random(1)):
            entries.clear()
            collect_solutions(f, t, ordering)
            assert entries
            ref = _Engine(f, t, ordering)
            for eng, depth, Q, P, U, path in entries:
                masks = (0, ref.live0, ref.unit0)
                for d, x in enumerate(path):
                    masks = ref._step(d, x, *masks)
                assert (Q, P, U) == masks, (f, t, path)


def test_falsifying_mask_memo_cleared_on_every_miss_changes_nothing(monkeypatch):
    # a memo of one entry is cleared on every miss, so almost every step
    # recomputes its falsifying mask; counts, solution lists and stats stay
    # those of the default memo on every golden instance and reset instance
    cases = [(f, t) for _, f, t in golden_generator().instances()] + [
        (f, brute_force(f).tau) for f in (g() for g in RESET_INSTANCES)]
    orderings = (OrderingSource.fixed(), OrderingSource.random(0),
                 OrderingSource.random(1))

    def runs():
        out = []
        for f, t in cases:
            for ordering in orderings:
                count, cstats = count_solutions(f, t, ordering)
                sols, stats = collect_solutions(f, t, ordering)
                assert count == len(sols)
                out.append((sols, cstats.as_dict(), stats.as_dict()))
        return out

    default = runs()
    monkeypatch.setattr(treesearch, "_FALS_MEMO_CAP", 1)
    assert runs() == default


def test_falsifying_mask_memo_stays_within_its_cap(monkeypatch):
    # maj(16,3) has more (label, Q within the label's clauses) patterns than
    # the cap of 8; the memo is cleared on a miss once full, so no node ever
    # sees it larger than the cap
    f = negation_closure(maj(16, 3))
    eng = _Engine(f, 8, OrderingSource.fixed(), collect=False)
    eng.run()
    assert len(eng.fals_memo) > 8
    monkeypatch.setattr(treesearch, "_FALS_MEMO_CAP", 8)
    real = _Engine._node
    sizes = []

    def node(eng, *args):
        sizes.append(len(eng.fals_memo))
        real(eng, *args)

    monkeypatch.setattr(_Engine, "_node", node)
    assert count_solutions(f, 8)[0] == 1296
    assert max(sizes) == 8


def test_entering_a_falsified_child_is_an_invariant_failure():
    # with the unit clause (-1) missing from U at the root, the search steps
    # through label 1 of the clause (1), which falsifies it
    f = negation_closure(Formula.of(4, [(-1,), (2, 3)]))
    eng = _Engine(f, 2, OrderingSource.fixed())
    assert eng.unit0 == 1 << 1
    eng.unit0 = 0
    with pytest.raises(InternalInvariantError, match="entered a falsified child"):
        eng.run()
    with pytest.raises(InternalInvariantError, match="entered a falsified child"):
        eng._step(0, 1, 0, eng.live0, eng.unit0)


def test_repeated_emission_is_an_invariant_failure(monkeypatch):
    # searching the tree twice from the root emits every solution twice
    real = _Engine._node

    def twice(eng, depth, *rest):
        real(eng, depth, *rest)
        if depth == 0:
            real(eng, depth, *rest)

    monkeypatch.setattr(_Engine, "_node", twice)
    f = negation_closure(maj(8, 3))
    for search in (count_solutions, collect_solutions):
        with pytest.raises(InternalInvariantError, match=r"solution \(.*\) emitted twice"):
            search(f, 4)
    assert count_solutions(f, 4, debug_assertions=False)[0] == 2 * 36


def _drop_left_labels(monkeypatch, at_depth=None):
    """Make ``_node`` forget the left labels it inherits, at every depth or
    at one: the path's skip mask loses them, and the exactly-once check's
    own copy keeps them."""
    real = _Engine._node

    def forgetful(eng, depth, Q, P, U, L, *rest):
        real(eng, depth, Q, P, U,
             0 if at_depth in (None, depth) else L, *rest)

    monkeypatch.setattr(_Engine, "_node", forgetful)


def test_dropped_left_labels_are_an_invariant_failure(monkeypatch):
    # above n = 32 and under default settings: the closure of maj(8,3) with
    # 32 variables that occur in no clause has the same 36 solutions
    f = Formula.of(40, negation_closure(maj(8, 3)).clauses)
    assert count_solutions(f, 4)[0] == 36
    with monkeypatch.context() as m:
        _drop_left_labels(m)
        for search in (count_solutions, collect_solutions):
            with pytest.raises(InternalInvariantError, match="emitted twice"):
                search(f, 4)
    # a worker of the parallel driver checks its subtree against the labels
    # left of its root child, so no subtree repeats another's solutions
    _drop_left_labels(monkeypatch, at_depth=1)
    with pytest.raises(InternalInvariantError, match="emitted twice"):
        collect_solutions(f, 4, parallel=2)


def test_exactly_once_check_agrees_with_the_set_reference(monkeypatch):
    # with left labels dropped at one depth, the engine's check raises
    # wherever the reference (a set of every emitted solution) sees a
    # repeat, and on the unchanged search neither fires
    cases = [(negation_closure(maj(8, 3)), 4), (negation_closure(maj(12, 3)), 6)]
    cases += [(f, brute_force(f).tau) for f in
              (collision_reset_instance(), structure_reset_instance(),
               heavy_reset_instance(), twomark_reset_instance())]
    repeats = 0
    for f, t in cases:
        for ordering in (OrderingSource.fixed(), OrderingSource.random(3)):
            sols, _ = collect_solutions(f, t, ordering)
            assert first_repeat(sols) is None
            for depth in range(t):
                with monkeypatch.context() as m:
                    _drop_left_labels(m, depth)
                    sols, _ = collect_solutions(f, t, ordering,
                                                debug_assertions=False)
                    if first_repeat(sols) is None:
                        continue
                    repeats += 1
                    with pytest.raises(InternalInvariantError,
                                       match="emitted twice"):
                        collect_solutions(f, t, ordering)
    assert repeats >= 10, repeats


@pytest.mark.parametrize("n, count", [(16, 1296), (20, 7776)])
def test_default_count_memory_does_not_grow_with_solutions(n, count):
    # the exactly-once check holds O(t) integers, not one per solution
    f = negation_closure(maj(n, 3))
    (got, _), peak = _traced_peak(lambda: count_solutions(f, n // 2))
    assert got == count
    assert peak < 64 * 1024, peak


def test_engine_tables_are_sized_by_the_variables_that_occur():
    # headers of 10^4 and 10^6 variables and no clause: the weight-0
    # solution, found without a table or a mask per header variable.  The
    # small header goes first, so that tables sized by the header (15 MB
    # at 10^4, quadratic in it) fail the test before the large one
    for n in (10 ** 4, 10 ** 6):
        f = Formula.of(n, [])
        for search, result in ((count_solutions, 1), (collect_solutions, [()])):
            (got, _), peak = _traced_peak(lambda: search(f, 0))
            assert got == result
            assert peak < 64 * 1024, (n, search.__name__, peak)


M64 = 2 ** 64


def _ref_splitmix64(z: int) -> int:
    """splitmix64 as published (Steele, Lea and Flood 2014): advance the
    state by the golden gamma, then mix it."""
    z = (z + 0x9E3779B97F4A7C15) % M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % M64
    return z ^ (z >> 31)


def _ref_order(h: int, labels: tuple[int, ...]) -> list[int]:
    """The documented draw: re-mix until below k! * floor(2^64 / k!), then
    take that entry of the lexicographic permutation list."""
    kf = math.factorial(len(labels))
    d = h
    while d >= kf * (M64 // kf):
        d = _ref_splitmix64(d)
    perm = list(itertools.permutations(range(len(labels))))[d % kf]
    return [labels[i] for i in perm]


def test_reference_splitmix64_matches_published_outputs():
    # the first three outputs of a splitmix64 generator seeded with 0
    gamma = 0x9E3779B97F4A7C15
    assert [_ref_splitmix64(i * gamma % M64) for i in range(3)] == \
        [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_ordering_stream_matches_documented_recipe():
    # root hash splitmix64(seed mod 2^64), child hash splitmix64(h ^ label),
    # order by the rejection draw; checked along the path 2, 5, 7 of maj(8,3)
    f = negation_closure(maj(8, 3))
    seeds = list(range(300)) + [-1, -2 ** 70 + 3, 2 ** 64 + 7, 2 ** 200]
    for seed in seeds:
        eng = _Engine(f, 4, OrderingSource.random(seed))
        h = _ref_splitmix64(seed % M64)
        Q, P, U = 0, eng.live0, eng.unit0
        for depth, x in enumerate((2, 5, 7)):
            for labels in ((5,), (3, 7), (1, 4, 6)):
                assert list(eng._order_children(depth, labels)) == _ref_order(h, labels)
            assert eng.hashes[depth] == h
            Q, P, U = eng._step(depth, x, Q, P, U)
            h = _ref_splitmix64(h ^ x)
    # hashes at or above the width-3 draw limit take the rejection branch
    labels = (1, 4, 6)
    for h in range(_DRAW_LIMIT[3], M64):
        eng.hashes[0] = h
        assert list(eng._order_children(0, labels)) == _ref_order(h, labels)
        eng._step(0, 2, 0, eng.live0, eng.unit0)
        assert list(eng._order_children(1, labels)) == \
            _ref_order(_ref_splitmix64(h ^ 2), labels)


def test_ordering_draw_rejects_at_the_limit(monkeypatch):
    f = negation_closure(maj(8, 3))
    eng = _Engine(f, 4, OrderingSource.random(0))
    labels = (1, 4, 6)
    limit = _DRAW_LIMIT[3]
    mixes = []

    def counted(z):
        mixes.append(z)
        return _ref_splitmix64(z)

    monkeypatch.setattr(treesearch, "_splitmix64", counted)
    # the last accepted hash is used as it is: index (limit - 1) mod 6 = 5
    eng.hashes[0] = limit - 1
    assert list(eng._order_children(0, labels)) == [6, 4, 1] == _ref_order(limit - 1, labels)
    assert mixes == []
    # every hash from the limit up is re-mixed once before the draw, and the
    # node keeps its own hash for its children
    remixed = 0
    for h in range(limit, M64):
        eng.hashes[0] = h
        mixes.clear()
        got = list(eng._order_children(0, labels))
        assert mixes == [h] and eng.hashes[0] == h
        assert got == _ref_order(h, labels)
        remixed += got != [labels[i] for i in _PERMS[3][h % 6]]
    assert remixed          # the re-mix moved at least one draw
    # width 2 never rejects: its limit is 2^64 itself
    assert _DRAW_LIMIT[2] == M64
    eng.hashes[0] = M64 - 1
    mixes.clear()
    assert list(eng._order_children(0, (3, 7))) == [7, 3] and mixes == []


def test_stream_description_is_the_same_everywhere():
    # the recipe is written out once, in the OrderingSource docstring; the
    # module docstring and the README point there
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    recipe = re.search(r"The stream, exactly:.*?passed\s+to\s+the\s+children\.",
                       OrderingSource.__doc__, re.S).group()
    assert "0x9E3779B97F4A7C15" in recipe and "h ^ x" in recipe
    for doc in (treesearch.__doc__, readme):
        text = " ".join(doc.split())
        assert "OrderingSource" in text and "gives the stream exactly" in text
        assert "0x9E3779B97F4A7C15" not in text


@pytest.mark.parametrize("k", [1, 2, 3])
def test_draw_limit_is_exactly_uniform(k):
    kf = math.factorial(k)
    limit = _DRAW_LIMIT[k]
    assert limit == kf * (M64 // kf) and limit % kf == 0
    assert M64 - kf < limit <= M64
    # over the accepted range [0, limit) every index occurs floor(2^64 / k!) times
    for i in range(kf):
        assert (limit - 1 - i) // kf + 1 == M64 // kf


def test_root_ordering_hits_every_permutation():
    # the closure of two disjoint width-3 clauses at t = 2: the root, at
    # depth t - 2, draws the order of (1, 2, 3), which the emission order
    # shows; over 3,000 seeds all 6 orders occur, with a chi-square
    # statistic (5 degrees of freedom) below its 0.999 quantile
    f = negation_closure(Formula.of(6, [(1, 2, 3), (4, 5, 6)]))
    seen: dict[tuple, int] = {}
    for seed in range(3000):
        sols, _ = collect_solutions(f, 2, OrderingSource.random(seed))
        key = tuple(dict.fromkeys(a for a, _ in sols))
        seen[key] = seen.get(key, 0) + 1
    assert sorted(seen) == sorted(itertools.permutations((1, 2, 3)))
    chi2 = sum((c - 500) ** 2 / 500 for c in seen.values())
    assert chi2 < 20.52


@st.composite
def mixed_closures(draw, max_n=8):
    """Negation closures of random mixed-sign clauses of width 1..3, with a
    target weight anywhere in 0..n (the test also runs t = tau)."""
    n = draw(st.integers(1, max_n))
    clauses = []
    for _ in range(draw(st.integers(0, 2 * n))):
        vs = draw(st.lists(st.integers(1, n), min_size=1,
                           max_size=min(3, n), unique=True))
        clauses.append([v if draw(st.booleans()) else -v for v in vs])
    return negation_closure(Formula.of(n, clauses)), draw(st.integers(0, n))


@given(mixed_closures(), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=300, deadline=None)
def test_engine_matches_oracle_on_mixed_sign_closures(case, seed):
    f, t_drawn = case
    tau = brute_force(f).tau
    for t in {t_drawn, t_drawn if tau is None else tau}:
        expect = list(brute_force(f, t=t).weight_t_solutions)
        for ordering in (OrderingSource.fixed(), OrderingSource.random(seed)):
            if tau is not None and tau < t:
                with pytest.raises(PreconditionViolated):
                    collect_solutions(f, t, ordering)
            else:
                sols, _ = collect_solutions(f, t, ordering)
                assert len(set(sols)) == len(sols)
                assert sorted(sols) == expect


def _path_chain(n: int) -> Formula:
    return Formula.of(n, [(i, i + 1) for i in range(1, n)])


def test_deep_path_chain_finishes():
    # one interpreter frame per tree level above the leaves: depth 400 fits
    # the default limit.  The odd and the even variables are the two
    # solutions, one root-to-leaf path each; every other child edge is
    # falsified.
    f = negation_closure(_path_chain(800))
    count, stats = count_solutions(f, 400)
    assert count == 2
    assert stats.nodes_visited == 2 * 400 + 1
    assert stats.falsified_leaves == 798
    # a collect past 24 variables reads its masks off 100 byte tables
    sols, _ = collect_solutions(f, 400)
    assert sorted(sols) == [tuple(range(1, 801, 2)), tuple(range(2, 801, 2))]


def test_too_deep_search_is_refused(tmp_path, capsys):
    f = negation_closure(_path_chain(4000))
    with pytest.raises(ParameterError, match="t=2000.*recursion limit"):
        count_solutions(f, 2000)
    path = tmp_path / "chain.cnf"
    path.write_text(_path_chain(4000).to_dimacs())
    assert cli_main(["enumerate", "--t", "2000", "--closure", "--mode",
                     "count", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("refused: target weight t=2000")
    assert "Traceback" not in err


def test_too_deep_survival_runs_are_refused():
    from naenum.analysis import estimate_psi

    f = negation_closure(_path_chain(4000))
    with pytest.raises(ParameterError, match="t=2000.*recursion limit"):
        treesearch.surviving_leaves(f, 2000, OrderingSource.random(0))
    with pytest.raises(ParameterError, match="t=2000.*recursion limit"):
        estimate_psi(f, 2000, 1, 0, method="engine")


def test_debug_trees_refuse_n_above_the_limit():
    with pytest.raises(ParameterError, match="n <= 24"):
        build_debug_tree(Formula.of(25, []), 0)


@pytest.mark.parametrize("t", [None, 2.5, "2"])
def test_non_integer_target_weight_is_refused(t):
    # None is what brute_force reports as tau for an unsatisfiable formula
    with pytest.raises(ParameterError, match="is not an integer"):
        count_solutions(negation_closure(maj(4, 3)), t)


def test_numpy_integer_target_weight_is_accepted():
    import numpy as np

    f = negation_closure(maj(4, 3))
    count, stats = count_solutions(f, np.int64(2))
    assert count == 6 and stats.as_dict() == count_solutions(f, 2)[1].as_dict()


@pytest.mark.parametrize("seed", [None, 2.5, "2"])
def test_non_integer_ordering_seed_is_refused(seed):
    with pytest.raises(ParameterError, match="ordering seed=.* is not an integer"):
        OrderingSource.random(seed)


def test_numpy_integer_ordering_seed_is_accepted():
    import numpy as np

    f = negation_closure(maj(8, 3))
    got = collect_solutions(f, 4, OrderingSource.random(np.int64(5)))
    assert _same_run(got, collect_solutions(f, 4, OrderingSource.random(5)))


@pytest.mark.parametrize("budget", [None, 2.5])
def test_non_integer_ordering_budget_is_refused(budget):
    with pytest.raises(ParameterError, match="budget=.* is not an integer"):
        enumerate_all_orderings(negation_closure(maj(4, 3)), 2, budget=budget)


def test_numpy_integer_ordering_budget_is_accepted():
    import numpy as np

    f = negation_closure(maj(4, 3))
    assert enumerate_all_orderings(f, 2, budget=np.int64(10 ** 6)).mean_surviving == 6
    with pytest.raises(BudgetExceeded):
        enumerate_all_orderings(f, 2, budget=np.int64(10))


def test_profiles_beyond_the_cap_are_dropped(monkeypatch):
    f = twomark_reset_instance()
    _, full = collect_solutions(f, 6)
    assert len(full.profiles) > 2 and not full.profiles_truncated
    monkeypatch.setattr(treesearch, "PROFILE_CAP", 2)
    _, capped = collect_solutions(f, 6)
    assert capped.profiles_truncated
    assert capped.profiles == full.profiles[:2]


def test_twomark_stage_without_debug_assertions():
    # the twomark shape checks are debug assertions; switching them off
    # changes nothing else
    f = twomark_reset_instance()
    assert _same_run(collect_solutions(f, 6, debug_assertions=False),
                     collect_solutions(f, 6))


def test_non_maximal_base_is_an_invariant_failure():
    # base maximality is the premise that rules out an unmarked width-3
    # expansion below the base levels; each attempt checks it
    f = negation_closure(maj(8, 3))
    base = ((1, 2, 3),)
    with pytest.raises(InternalInvariantError, match="base collection is not maximal"):
        _Engine(f, 4, OrderingSource.fixed(), base=base).run()


def test_engine_instances_carry_no_dict():
    # every attribute an engine sets is a slot, and every slot is set
    f = negation_closure(maj(8, 3))
    for kw in ({}, {"record": True}, {"collect": False}):
        eng = _Engine(f, 4, OrderingSource.random(1), **kw)
        eng.run()
        assert not hasattr(eng, "__dict__")
        assert all(hasattr(eng, name) for name in _Engine.__slots__)
