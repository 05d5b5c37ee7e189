from itertools import combinations

import pytest

from naenum import (Formula, branch_on_t0, build_stage_profile, maj,
                    negation_closure, twomark_context)
from naenum.errors import InternalInvariantError
from naenum.selection import BaseResetSignal, monotone_index
from corpus import (collision_reset_instance, heavy_overflow_instance,
                    structure_reset_instance)
from oracles import clause_vars, disjoint_stage, q_of


def _max_disjoint_size(clauses):
    best = 0
    for r in range(len(clauses), 0, -1):
        for combo in combinations(clauses, r):
            used = set()
            ok = True
            for c in combo:
                if used & set(clause_vars(c)):
                    ok = False
                    break
                used.update(clause_vars(c))
            if ok:
                return r
    return best


@pytest.mark.parametrize("n,expected_t0", [(4, 1), (8, 2)])
def test_disjoint_stage_maj(n, expected_t0):
    f = negation_closure(maj(n, 3))
    coll, t0 = disjoint_stage(f)
    assert t0 == expected_t0
    # greedy is not just maximal but attains the true maximum here
    assert _max_disjoint_size(f.monotone_clauses(3)) == expected_t0


def test_disjoint_stage_empty():
    f = negation_closure(Formula.of(4, [(1, -2), (3, 4)]))
    assert len(f.monotone_clauses(3)) == 0
    coll, t0 = disjoint_stage(f)
    assert t0 == 0


def test_branch_on_t0():
    assert branch_on_t0(2, 8) == "free"     # boundary goes to the free route
    assert branch_on_t0(3, 8) == "free"
    assert branch_on_t0(1, 8) == "controlled"


def test_profile_fields_on_handbuilt_instance():
    f = negation_closure(Formula.of(12, [(1, 2, 3), (2, 4, 5), (3, 4, 6)]))
    base, t0 = disjoint_stage(f)
    assert base == ((1, 2, 3),) and t0 == 1
    prof = build_stage_profile(monotone_index(f), base, (1,))
    assert prof.c1 == ((2, 4, 5),)
    assert prof.t1 == 1 and prof.m_b == 0
    assert prof.x_tilde == {0: 2} and prof.x_hat == {0: 3}
    assert prof.f2r == ((3, 4, 6),) and prof.f2b == ()
    assert prof.m_r == 1 and prof.m_i == 0 and prof.m_r_prime == 1
    assert tuple(sorted(prof.cr_level.values())) == (0,)     # V_R'
    assert prof.i_value == 3 * 1 + 2 * 1 + 1 + 0
    # the identity m_B + m_R + m_I = t0
    assert prof.m_b + prof.m_r + prof.m_i == prof.t0


def test_profile_identity_on_corpus(corpus500):
    checked = 0
    for f, rep in corpus500[:80]:
        base, t0 = disjoint_stage(f)
        if branch_on_t0(t0, f.n) != "controlled" or t0 == 0:
            continue
        path = tuple(clause_vars(c)[0] for c in base)
        try:
            prof = build_stage_profile(monotone_index(f), base, path)
        except BaseResetSignal:
            continue
        assert prof.m_b + prof.m_r + prof.m_i == prof.t0
        assert prof.m_r_prime <= prof.m_r <= prof.t1
        assert len(set(prof.c1_levels)) == prof.t1
        checked += 1
    assert checked >= 10


def test_twomark_context_lengths():
    f = negation_closure(Formula.of(12, [(1, 2, 3), (2, 4, 5), (3, 4, 6)]))
    base, _ = disjoint_stage(f)
    prof = build_stage_profile(monotone_index(f), base, (1,))
    assert prof.c1 == ((2, 4, 5),) and prof.x_tilde == {0: 2}
    on = twomark_context(prof, (2,))        # the onemark edge took X-tilde
    off = twomark_context(prof, (4,))
    assert on.ell == 1 and on.clauses == ((3, 4, 6),) and on.fals_vars == (3,)
    assert on.heavy_budget == 0
    assert off.ell == 0 and off.heavy_budget == 1


def test_profile_path_must_follow_the_base():
    f = negation_closure(maj(8, 3))
    base, t0 = disjoint_stage(f)
    assert t0 == 2
    with pytest.raises(InternalInvariantError, match="does not cover"):
        build_stage_profile(monotone_index(f), base, (1,))
    with pytest.raises(InternalInvariantError, match="path label not in base"):
        build_stage_profile(monotone_index(f), base, (1, 2))


def test_collision_reset_signal():
    f = collision_reset_instance()
    base, t0 = disjoint_stage(f)
    assert base == ((1, 2, 3),)
    with pytest.raises(BaseResetSignal) as ei:
        build_stage_profile(monotone_index(f), base, (1,))
    assert set(ei.value.added) == {(2, 4, 5), (3, 6, 7)}
    assert ei.value.removed == [(1, 2, 3)]


def test_structure_reset_signal():
    f = structure_reset_instance()
    base, t0 = disjoint_stage(f)
    assert base == ((1, 8, 9), (4, 10, 11))
    with pytest.raises(BaseResetSignal) as ei:
        build_stage_profile(monotone_index(f), base, (1, 4))
    assert (5, 7, 9) in ei.value.added and (2, 3, 8) in ei.value.added
    assert ei.value.removed == [(1, 8, 9)]


def test_heavy_overflow_yields_twomark_reset():
    # f2r holds the disjoint pair (3, 8, 12), (6, 9, 11), which a greedy
    # twomark collection misses.  Given such a collection by hand, the two
    # clauses heavy on one shoot with an empty twomark plan overflow budget 1
    # and witness a larger family: no maximum collection lets that happen
    f = heavy_overflow_instance()
    base, t0 = disjoint_stage(f)
    assert base == ((1, 2, 3), (4, 5, 6)) and t0 == 2
    prof = build_stage_profile(monotone_index(f), base, (1, 4))
    assert set(prof.f2r) == {(3, 7, 11), (3, 8, 12), (6, 9, 11)}
    prof.cr = ((3, 7, 11),)
    prof.cr_level = {(3, 7, 11): 0}
    assert prof.m_r_prime == 1

    from naenum.treesearch import OrderingSource, _Engine

    eng = _Engine(f, f.n // 2, OrderingSource.fixed(), base=base)
    eng.t0 = t0
    k2 = twomark_context(prof, (7, 9))      # neither onemark edge took X-tilde
    assert k2.ell == 0 and k2.heavy_budget == 1
    eng.prof, eng.k2, eng.heavies = prof, k2, [(3, 8, 12)]
    with pytest.raises(InternalInvariantError,
                       match="2 disjoint twomark-pool clauses on one shoot, "
                             "but the maximum twomark collection holds 1"):
        eng._heavy_overflow((6, 9, 11))


def test_twice_marked_pool_covers_every_end_of_onemark_node(corpus500):
    # the twice-marked clauses live at any end-of-onemark node form a subset
    # of the pool classified once per u0 (all such nodes share one shoot)
    from naenum import build_debug_tree

    checked = 0
    for f, rep in corpus500[:120]:
        tree = build_debug_tree(f, rep.tau)
        if tree.route != "controlled" or not tree.profiles:
            continue
        by_q = {prof.q_u0: prof for prof in tree.profiles}
        for u in tree.nodes:
            anc = u
            while anc.depth > tree.t0:
                anc = tree.nodes[anc.parent]
            prof = by_q.get(frozenset(q_of(tree, anc)))
            if prof is None or u.depth != prof.t0 + prof.t1 \
                    or u.leaf_kind == "falsified":
                continue
            q = set(q_of(tree, u))
            pool = set(prof.f2r) | set(prof.f2b)
            x_vars = {v for c in prof.base for v in clause_vars(c)} - prof.q_u0
            c1_vars = {v for c in prof.c1 for v in clause_vars(c)}
            for c in f.monotone_clauses(3):
                vs = clause_vars(c)
                if set(vs) & q:
                    continue
                counts = sorted((1 if v in x_vars else 0)
                                + (1 if v in c1_vars else 0) for v in vs)
                if counts == [0, 1, 1]:
                    assert c in pool
                    checked += 1
    assert checked >= 100
