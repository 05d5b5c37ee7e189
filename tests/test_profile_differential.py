"""Differential tests: the bitmask stage-profile builder against the frozen
scan-based reference in ``reference_profile.py``, on every depth-t0 path, and
the label-based twomark plan against the frozen took-based one, at every
end-of-onemark node of controlled debug trees."""

from dataclasses import fields
from itertools import product

from hypothesis import given, settings, strategies as st

import naenum.treesearch as treesearch
from naenum import (Formula, brute_force, build_debug_tree,
                    build_stage_profile, collect_solutions, negation_closure,
                    random_negation_closed, twomark_context)
from naenum.selection import BaseResetSignal, StageProfile, monotone_index
from corpus import (collision_reset_instance, heavy_overflow_instance,
                    heavy_reset_instance, structure_reset_instance,
                    twomark_reset_instance)
from oracles import disjoint_stage, is_maximal, q_of
import reference_profile

MAX_PATHS = 729  # 3^t0 for t0 <= 6


def _outcome(build, *args, **kw):
    try:
        return build(*args, **kw)
    except Exception as exc:  # compared by class and payload below
        return exc


def _assert_same(got, want, where):
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, StageProfile):
        for fld in fields(StageProfile):
            assert getattr(got, fld.name) == getattr(want, fld.name), \
                (where, fld.name)
    elif isinstance(want, BaseResetSignal):
        assert (got.removed, got.added, got.reason) == \
            (want.removed, want.added, want.reason), where
    else:
        assert str(got) == str(want), where


def _check_formula(f: Formula) -> int:
    """Compare both builders on every base-label path of ``f``; returns the
    number of comparisons."""
    base, t0 = disjoint_stage(f)
    if 3 ** t0 > MAX_PATHS:
        return 0
    index = monotone_index(f)
    done = 0
    for path in product(*base):
        want = _outcome(reference_profile.build_stage_profile, f, base, path)
        _assert_same(_outcome(build_stage_profile, index, base, path), want,
                     (f, path))
        done += 1
    return done


def test_profiles_match_reference_on_corpus(corpus500):
    assert sum(_check_formula(f) for f, _ in corpus500) > 5000


def test_profiles_match_reference_on_large_random_instances():
    # the benchmark's corpus runs n up to 20; the shipped corpus stops at 14
    done = 0
    for s in range(60):
        n = 15 + s % 6
        done += _check_formula(random_negation_closed(n, 3 + (s * 7) % (n - 2),
                                                      seed=7000 + s))
    assert done > 3500


def test_profiles_match_reference_on_reset_instances():
    for f in (collision_reset_instance(), structure_reset_instance()):
        assert _check_formula(f) > 0


def test_profiles_match_reference_after_a_twomark_reset():
    # at the depth-t0 path (1, 4) the greedy twomark family is (3, 7, 11)
    # alone; both builders take the maximum one
    f = heavy_overflow_instance()
    assert _check_formula(f) > 0
    base, _ = disjoint_stage(f)
    want = reference_profile.build_stage_profile(f, base, (1, 4))
    got = build_stage_profile(monotone_index(f), base, (1, 4))
    _assert_same(got, want, (f, (1, 4)))
    assert got.f2r == ((3, 7, 11), (3, 8, 12), (6, 9, 11))
    assert want.cr == got.cr == ((3, 8, 12), (6, 9, 11))
    assert got.m_r_prime == got.m_r == 2


def test_onemark_collection_is_maximal(corpus500, monkeypatch):
    # the premise that makes a onemark reset unreachable: C1 leaves no F1
    # clause disjoint from its variables, on every profile built over every
    # base-label path and on every profile the engine builds
    built = []

    def recorded(index, base, path):
        prof = build_stage_profile(index, base, path)
        built.append((f, prof))         # f: the formula being searched below
        return prof

    monkeypatch.setattr(treesearch, "build_stage_profile", recorded)
    instances = [f for f, _ in corpus500] + [
        collision_reset_instance(), structure_reset_instance(),
        heavy_overflow_instance()]
    for f in instances:
        base, t0 = disjoint_stage(f)
        if 3 ** t0 <= MAX_PATHS:
            for path in product(*base):
                prof = _outcome(build_stage_profile, monotone_index(f), base, path)
                if isinstance(prof, StageProfile):
                    built.append((f, prof))
        collect_solutions(f, brute_force(f).tau)
    assert len(built) > 6000, len(built)
    assert all(is_maximal(prof.c1, _f1(f, prof)) for f, prof in built)


def _f1(f: Formula, prof: StageProfile) -> list:
    """F1 at u0, recomputed from its definition: the monotone width-3
    clauses that avoid the path labels and hold exactly one X variable, a
    variable of the base collection off the path."""
    x_vars = {v for c in prof.base for v in c} - prof.q_u0
    return [c for c in f.monotone_clauses(3)
            if not prof.q_u0 & set(c) and len(x_vars & set(c)) == 1]


@st.composite
def mixed_closures(draw, max_n=12):
    n = draw(st.integers(3, max_n))
    clauses = []
    for _ in range(draw(st.integers(0, 3 * n))):
        vs = draw(st.lists(st.integers(1, n), min_size=1, max_size=3,
                           unique=True))
        clauses.append([v if draw(st.booleans()) else -v for v in vs])
    return negation_closure(Formula.of(n, clauses))


@given(mixed_closures())
@settings(max_examples=200, deadline=None)
def test_profiles_match_reference_on_mixed_sign_closures(f):
    _check_formula(f)


def test_engine_profiles_match_reference(corpus500, monkeypatch):
    # every profile the engine builds (with its per-call index of the
    # searched formula f) equals the reference's, including those rebuilt
    # after base resets
    calls = []

    def checked(index, base, path):
        calls.append(index == monotone_index(f))
        want = _outcome(reference_profile.build_stage_profile, f, base, path)
        got = _outcome(build_stage_profile, index, base, path)
        _assert_same(got, want, (f, path))
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(treesearch, "build_stage_profile", checked)
    for f, rep in corpus500 + [(g, brute_force(g)) for g in (
            collision_reset_instance(), structure_reset_instance())]:
        sols, _ = collect_solutions(f, rep.tau)
        assert sorted(sols) == list(rep.gamma)
    assert len(calls) > 1500 and all(calls), len(calls)


def _twomark_plans_match(f: Formula) -> int:
    """Compare ``twomark_context`` on each end-of-onemark node's onemark
    labels with the frozen plan on the levels the engine's former
    comprehension found; returns the number of nodes compared."""
    tree = build_debug_tree(f, brute_force(f).tau)
    if tree.route != "controlled":
        return 0
    by_q = {prof.q_u0: prof for prof in tree.profiles}
    done = 0
    for u in tree.nodes:
        if u.depth < tree.t0 or u.falsifying:
            continue
        q = q_of(tree, u)
        prof = by_q.get(frozenset(q[:tree.t0]))
        if prof is None:        # a depth-t0 leaf builds no profile
            assert u.depth == tree.t0 == tree.t
            continue
        if u.depth != tree.t0 + prof.t1:
            continue
        labels = q[tree.t0:]
        want = reference_profile.twomark_context(
            prof, reference_profile.took_marked(prof, labels))
        assert twomark_context(prof, labels) == want, (f, q)
        # the engine set the plan's budget on every expanded such node
        assert u.heavy_budget == (want.heavy_budget if u.children else None)
        done += 1
    return done


def test_twomark_plans_match_reference_on_corpus(corpus500):
    assert sum(_twomark_plans_match(f) for f, _ in corpus500 if f.n <= 16) > 3000


def test_twomark_plans_match_reference_on_reset_instances():
    # the collision and structure instances end on the free route
    done = [_twomark_plans_match(instance()) for instance in (
        collision_reset_instance, structure_reset_instance,
        heavy_overflow_instance, heavy_reset_instance, twomark_reset_instance)]
    assert done[:2] == [0, 0] and min(done[2:]) > 0, done
