"""Frozen reference copy of the scan-based stage-profile builder.

``build_stage_profile`` below is the set-and-tuple implementation that the
bitmask builder in ``naenum.selection`` replaced, kept verbatim (with the
greedy collection builder it called) so the differential tests can compare
the two on every depth-t0 path.  Do not edit it to follow the package.  The
one contract change since: the twomark collection is a maximum disjoint
family of F2R, the first in canonical order, which ``maximum_family`` finds
by exhaustive search, with no twomark keep.

The package's collections are sorted tuples of clauses.  This copy keeps the
collection class it was written against, ``DisjointCollection``: it wraps
the base tuple it is given in one, and hands ``StageProfile`` tuples.
``StageProfile`` has since dropped its ``n``, ``p``, ``x_index``, ``f1`` and
``vr_prime`` fields, so this copy no longer passes them.  ``clause_vars``
left the package and now comes from ``oracles``.

``took_marked`` and ``twomark_context`` below are the twomark plan as it was
before ``naenum.selection.twomark_context`` took the onemark labels: the
engine worked out which levels took X-tilde and passed that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from naenum.cnf import Clause, Formula
from naenum.errors import InternalInvariantError
from naenum.selection import (BASE, ONEMARK, TWOMARK, BaseResetSignal,
                              StageProfile, TwomarkContext)
from oracles import clause_vars


@dataclass
class DisjointCollection:
    """Ordered list of pairwise variable-disjoint clauses.

    The order is the expansion order of tree levels, so it is kept canonical
    (sorted) for reproducibility."""

    members: list[Clause]
    universe_tag: str = BASE

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.members:
            vs = set(clause_vars(c))
            if vs & seen:
                raise InternalInvariantError(
                    f"{self.universe_tag}: clauses not pairwise "
                    f"variable-disjoint: {self.members}")
            seen |= vs

    def __len__(self) -> int:
        return len(self.members)

    def variables(self) -> frozenset[int]:
        return frozenset(v for c in self.members for v in clause_vars(c))


def greedy_maximal(candidates: Iterable[Clause], tag: str = BASE,
                   keep: Sequence[Clause] = ()) -> DisjointCollection:
    """Scan candidates in canonical order, adding every clause disjoint from
    the collection so far.  ``keep`` seeds the collection (used after resets).
    The result is maximal: no candidate is disjoint from all members."""
    members = list(keep)
    used = {v for c in members for v in clause_vars(c)}
    for c in sorted(set(candidates)):
        vs = clause_vars(c)
        if c not in members and not any(v in used for v in vs):
            members.append(c)
            used.update(vs)
    members.sort()
    return DisjointCollection(members, tag)


def maximum_family(pool: Iterable[Clause], tag: str) -> DisjointCollection:
    """The first pairwise-disjoint combination of sorted(pool), trying the
    largest size first: the first maximum family in canonical order."""
    pool = sorted(set(pool))
    for r in range(len(pool), 0, -1):
        for combo in combinations(pool, r):
            vs = [v for c in combo for v in clause_vars(c)]
            if len(vs) == len(set(vs)):
                return DisjointCollection(list(combo), tag)
    return DisjointCollection([], tag)


def build_stage_profile(f: Formula, base: Sequence[Clause],
                        path_labels: Sequence[int],
                        c1_keep: Sequence[Clause] = ()) -> StageProfile:
    """Compute the controlled-stage profile for the node reached along
    ``path_labels`` (one label per base level).

    Raises a reset signal whenever the classification uncovers a disjoint
    family that beats one of the maintained collections.  ``c1_keep`` seeds
    the onemark collection.
    """
    base = DisjointCollection(list(base), BASE)
    t0 = len(base)
    if len(path_labels) != t0:
        raise InternalInvariantError("path does not cover the disjoint prefix")
    mono3 = f.monotone_clauses(3)
    q0 = frozenset(path_labels)
    p: list[int] = []
    x_pairs: list[tuple[int, int]] = []
    x_index: dict[int, int] = {}
    for i, (c, lab) in enumerate(zip(base.members, path_labels)):
        vs = clause_vars(c)
        if lab not in vs:
            raise InternalInvariantError("path label not in base clause")
        rest = tuple(v for v in vs if v != lab)
        p.append(lab)
        x_pairs.append(rest)
        for v in rest:
            x_index[v] = i

    # exactly one marked variable at u0, live at u0
    f1 = tuple(c for c in mono3
               if not (set(clause_vars(c)) & q0)
               and sum(v in x_index for v in clause_vars(c)) == 1)
    c1 = greedy_maximal(f1, ONEMARK, keep=c1_keep)

    x_tilde: dict[int, int] = {}
    x_hat: dict[int, int] = {}
    y_index: dict[int, int] = {}
    c1_of_level: dict[int, Clause] = {}
    for c in c1.members:
        xs = [v for v in clause_vars(c) if v in x_index]
        i = x_index[xs[0]]
        if i in c1_of_level:
            # two onemark clauses on the same sibling pair with disjoint
            # tails: swapping them in for base level i grows the base family
            raise BaseResetSignal([base.members[i]], [c1_of_level[i], c],
                                  f"onemark clauses on both X variables of level {i}")
        c1_of_level[i] = c
        x_tilde[i] = xs[0]
        x_hat[i] = x_pairs[i][0] if x_pairs[i][1] == xs[0] else x_pairs[i][1]
        for v in clause_vars(c):
            if v != xs[0]:
                y_index[v] = i
    v1 = tuple(sorted(c1_of_level))
    c1_levels = tuple(x_index[next(v for v in clause_vars(c) if v in x_index)]
                      for c in c1.members)

    # marking multiplicity at the end of the onemark stage
    c1_vars = c1.variables()
    qstar = q0 | {x_tilde[i] for i in v1}

    def _count(v: int) -> int:
        return (1 if v in x_index else 0) + (1 if v in c1_vars else 0)

    f2r: list[Clause] = []
    f2b: list[Clause] = []
    for c in mono3:
        vs = clause_vars(c)
        if set(vs) & qstar:
            continue
        counts = [_count(v) for v in vs]
        if sorted(counts) != [0, 1, 1]:
            continue
        marked = [v for v in vs if _count(v) == 1]
        v1_x = [v for v in marked if v in x_index and x_index[v] in c1_of_level]
        if len(v1_x) >= 2:
            i, j = sorted(x_index[v] for v in v1_x[:2])
            raise BaseResetSignal(
                [base.members[i], base.members[j]],
                [c1_of_level[i], c1_of_level[j], c],
                f"twice-marked clause spans the X pairs of levels {i} and {j}")
        if len(v1_x) == 1:
            i = x_index[v1_x[0]]
            other = next(v for v in marked if v != v1_x[0])
            if other in x_index:
                f2r.append(c)  # second mark on a VB sibling pair
            else:
                j = y_index[other]
                if j != i:
                    raise BaseResetSignal(
                        [base.members[i]], [c1_of_level[i], c],
                        f"twice-marked clause pairs level {i} with a tail of level {j}")
                f2r.append(c)  # second mark on the same level's tail
        else:
            if not any(v in x_index for v in marked):
                raise BaseResetSignal(
                    [], [c],
                    "twice-marked clause disjoint from the base collection")
            f2b.append(c)

    cr = maximum_family(f2r, TWOMARK)
    cr_level = {}
    for c in cr.members:
        lv = next(x_index[v] for v in clause_vars(c)
                  if v in x_index and x_index[v] in c1_of_level)
        cr_level[c] = lv
    vr = tuple(sorted({next(x_index[v] for v in clause_vars(c)
                            if v in x_index and x_index[v] in c1_of_level)
                       for c in f2r}))
    vr_prime = tuple(sorted(cr_level.values()))
    return StageProfile(t0, tuple(base.members), q0,
                        tuple(c1.members), c1_levels, x_tilde, x_hat, v1,
                        tuple(f2r), tuple(f2b), tuple(cr.members), cr_level,
                        vr)


def took_marked(prof: StageProfile, onemark_labels: Sequence[int]) -> frozenset[int]:
    """The engine's former comprehension: the base levels whose onemark edge
    on the path is X-tilde."""
    return frozenset(
        lvl for lvl, x in zip(prof.c1_levels, onemark_labels)
        if x == prof.x_tilde[lvl])


def twomark_context(profile: StageProfile, took_marked: frozenset[int]) -> TwomarkContext:
    """``took_marked``: base levels whose onemark edge on the path used the
    marked X variable.  The twomark stage replays the matching collection
    clauses; its length equals the overlap with the collection's levels."""
    clauses = tuple(c for c in profile.cr
                    if profile.cr_level[c] in took_marked)
    fals = tuple(profile.x_hat[profile.cr_level[c]] for c in clauses)
    ell = len(clauses)
    budget = profile.m_r_prime + profile.m_b - ell
    return TwomarkContext(clauses, fals, ell, budget)
