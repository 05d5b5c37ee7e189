import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from naenum import (BudgetExceeded, Formula, InputNotClosed, OrderingSource,
                    ParameterError, PreconditionViolated, WidthError,
                    brute_force, build_debug_tree, collect_solutions,
                    count_solutions, enumerate_all_orderings,
                    enumerate_solutions, maj, negation_closure,
                    random_negation_closed, verify_enumeration)
from naenum.cli import main as cli_main
from naenum.treesearch import _Engine
from corpus import collision_reset_instance, structure_reset_instance


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
        enumerate_solutions(negation_closure(maj(4, 3)), 2,
                            OrderingSource.exhaustive())


def test_precondition_detected():
    f = negation_closure(maj(4, 3))
    with pytest.raises(PreconditionViolated):
        enumerate_solutions(f, 3)  # weight-2 transversals exist


def test_pruning_vs_full_tree_on_maj4():
    f = negation_closure(maj(4, 3))
    tree = build_debug_tree(f, 2)
    viable = [u for u in tree.leaves() if u.leaf_kind == "viable"]
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


def test_reset_instances_still_enumerate():
    for f in (collision_reset_instance(), structure_reset_instance()):
        rep = brute_force(f)
        sols, stats = collect_solutions(f, rep.tau)
        assert verify_enumeration(f, rep.tau, sols).passed
        assert stats.resets["base"] >= 1
        assert stats.reset_events


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
            if alive[u.id] and u.is_transversal:
                q = tuple(sorted(tree.q_of(u)))
                assert q not in leftmost, "second surviving leaf for a solution"
                leftmost[q] = u.id
        # every full-tree leaf of that solution set lies at or right of it
        for u in tree.nodes[1:]:
            if u.is_transversal:
                q = tuple(sorted(tree.q_of(u)))
                assert leftmost[q] <= u.id


def test_exhaustive_orderings_single_node():
    f = negation_closure(Formula.of(3, [(1, 2, 3)]))
    report = enumerate_all_orderings(f, 1)
    assert report.orderings == 6
    assert report.mean_surviving == 3


def test_exhaustive_orderings_identities(tiny_exhaustive):
    for f, rep, report in tiny_exhaustive[:10]:
        assert report.mean_surviving == report.predicted_psi
        for v in report.tree.nodes[1:]:
            if not v.falsifying:
                assert report.edge_survival[v.id] == Fraction(1, 2 ** v.marks)


def test_exhaustive_budget():
    f = negation_closure(maj(8, 3))
    with pytest.raises(BudgetExceeded):
        enumerate_all_orderings(f, 4, budget=10 ** 6)


def test_exhaustive_mean_bound_on_maj4():
    f = negation_closure(maj(4, 3))
    report = enumerate_all_orderings(f, 2)
    assert report.mean_surviving <= 6  # equality: extremal instance
    assert report.mean_surviving == 6


def test_per_ordering_records():
    f = negation_closure(Formula.of(3, [(1, 2, 3)]))
    report = enumerate_all_orderings(f, 1, keep_per_ordering=True)
    assert len(report.per_ordering) == 6
    assert all(c == 3 for _, c in report.per_ordering)


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_matches_sequential(workers):
    f = negation_closure(maj(8, 3))
    seq, seq_stats = collect_solutions(f, 4, OrderingSource.random(5))
    par, par_stats = collect_solutions(f, 4, OrderingSource.random(5),
                                       parallel=workers)
    assert seq == par
    assert seq_stats.nodes_visited == par_stats.nodes_visited
    assert seq_stats.superfluous_skips == par_stats.superfluous_skips


def test_parallel_reset_instance():
    f = collision_reset_instance()
    t = brute_force(f).tau
    seq, s1 = collect_solutions(f, t)
    par, s2 = collect_solutions(f, t, parallel=2)
    assert seq == par and s2.resets["base"] >= 1


def test_count_matches_enumerate():
    f = negation_closure(maj(8, 3))
    n1, st = count_solutions(f, 4, OrderingSource.random(1))
    sols, _ = collect_solutions(f, 4, OrderingSource.random(1))
    assert n1 == len(sols) == 36


def test_ordering_stream_matches_documented_recipe():
    # blake2b-64 over the 8-byte LE seed and 3-byte LE path labels, then
    # random.Random(digest as a big-endian int).shuffle of the clause order
    f = negation_closure(maj(8, 3))
    for seed in range(300):
        eng = _Engine(f, 4, OrderingSource.random(seed))
        eng._step(0, 2, 0, eng.live0, eng.unit0)
        for depth, path in ((0, b""), (1, (2).to_bytes(3, "little"))):
            h = hashlib.blake2b(seed.to_bytes(8, "little") + path, digest_size=8)
            for labels in ((5,), (3, 7), (1, 4, 6)):
                want = list(labels)
                random.Random(int.from_bytes(h.digest(), "big")).shuffle(want)
                assert list(eng._order_children(depth, labels)) == want


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
    # one interpreter frame per tree level: depth 400 fits the default limit.
    # The odd and the even variables are the two solutions, one root-to-leaf
    # path each; every other child edge is falsified.
    count, stats = count_solutions(negation_closure(_path_chain(800)), 400)
    assert count == 2
    assert stats.nodes_visited == 2 * 400 + 1
    assert stats.falsified_leaves == 798


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
