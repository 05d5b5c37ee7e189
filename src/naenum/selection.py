"""Staged clause selection for the transversal-tree search.

Levels are expanded in three phases:

* ``base`` (disjoint) stage: a greedily-maximal collection of pairwise
  variable-disjoint monotone width-3 clauses, one clause per level.
* controlled stage, entered only when the base collection has fewer than n/4
  clauses.  It has two substages below each depth-t0 node u0: ``onemark``
  expands a maximal disjoint family of once-marked monotone clauses, then
  ``twomark`` expands twice-marked clauses that carry a built-in falsifying
  edge, for a path-dependent number of levels.
* ``free`` stage: the live clause whose positive literals rank first by the
  key (width, variables): smallest residual width, then lexicographic.

Each collection is a sorted tuple of pairwise variable-disjoint clauses
(``matching``), and only the base resets.  Structural checks during the
controlled stage can discover a disjoint family strictly larger than the base
collection; it is raised as a reset signal, the base is grown, and the
attempt restarts.  The onemark collection is greedily maximal over the
once-marked clauses F1, and a free-stage witness of a larger one would be an
F1 clause disjoint from it.  The twomark collection is a maximum disjoint
family of its pool F2R.  ``twomark_context`` reads a path's twomark plan off
its onemark labels: each level that took X-tilde replays its C_R clause.  The
stage tags live here: ``BASE``, ``ONEMARK``, ``TWOMARK`` and ``FREE``.

The checks rest on one premise: the base collection is maximal over the
monotone width-3 clauses (``greedy_maximal`` builds it, each base reset
re-extends it), so each such clause meets a base variable.  The search
engine checks the premise once per attempt under its debug assertions.  So
no twice-marked clause has both marks on onemark tails: it would avoid the
path labels and the sibling pairs X, which are all the base's variables.

Stage profiles read a ``monotone_index`` (``matching``): the formula's
monotone width-3 clauses in canonical order, each paired with its variable
bitmask.  The search engine builds it once per call and hands it to every
profile.  A profile takes each level's sibling pair straight from its base
clause, then reads the index's masks in two passes: the first builds C1
greedily, in canonical order, and records each V1 level's X-tilde and
X-hat as it goes; the second classifies the twice-marked clauses by int mask
tests against the path labels, the sibling pairs and C1.  The exhaustive
search for C_R runs only when F2R is non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .cnf import Clause
from .errors import InternalInvariantError
# monotone_index is re-exported beside the profile builder that reads its index
from .matching import MonotoneIndex, maximum_family, monotone_index  # noqa: F401

# Stage tags, by what the stage expands with: the pairwise-disjoint prefix,
# once-marked clauses, twice-marked width-reduced clauses, the free pick.
BASE = "base"
ONEMARK = "onemark"
TWOMARK = "twomark"
FREE = "free"


def _var(bit: int) -> int:
    return bit.bit_length() - 1


class BaseResetSignal(Exception):
    """Internal control flow: a disjoint family larger than the base
    collection was found."""

    def __init__(self, removed: Sequence[Clause], added: Sequence[Clause],
                 reason: str):
        super().__init__(reason)
        self.removed = list(removed)
        self.added = list(added)
        self.reason = reason


def branch_on_t0(t0: int, n: int) -> str:
    """Route selection: skip the controlled stage when the disjoint prefix
    already covers a quarter of the variables (ties go to the free route)."""
    return FREE if 4 * t0 >= n else "controlled"


@dataclass
class StageProfile:
    """Controlled-stage bookkeeping for one depth-t0 node u0.

    Level i of the base collection is split, relative to u0's path, into the
    path label p_i and the sibling pair X_i.  V1 holds the levels whose X-pair
    feeds the onemark collection; VB the rest.  The twomark collection is a
    maximum disjoint family of F2R, the twice-marked clauses that reuse an X
    variable of a V1 level.  That variable is the level's X-hat, so a disjoint
    family takes one clause at most per level of VR: m'_R <= m_R.
    """

    t0: int
    base: tuple[Clause, ...]
    q_u0: frozenset[int]
    c1: tuple[Clause, ...]                # onemark collection, |c1| = t1
    c1_levels: tuple[int, ...]            # base level per c1 member, aligned
    x_tilde: dict[int, int]               # level in V1 -> X var used by c1
    x_hat: dict[int, int]                 # level in V1 -> the other X var
    v1: tuple[int, ...]
    f2r: tuple[Clause, ...]
    f2b: tuple[Clause, ...]
    cr: tuple[Clause, ...]                # twomark collection, |cr| = m'_R
    cr_level: dict[Clause, int]           # twomark clause -> its V1 level
    vr: tuple[int, ...]
    ell_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def t1(self) -> int:
        return len(self.c1)

    @property
    def m_b(self) -> int:
        return self.t0 - self.t1

    @property
    def m_r(self) -> int:
        return len(self.vr)

    @property
    def m_i(self) -> int:
        return self.t1 - self.m_r

    @property
    def m_r_prime(self) -> int:
        return len(self.cr)

    @property
    def i_value(self) -> int:
        return 3 * self.t0 + 2 * self.t1 + self.m_r_prime + self.m_b

    def as_dict(self) -> dict:
        return {"q_u0": sorted(self.q_u0), "t0": self.t0, "t1": self.t1,
                "m_b": self.m_b, "m_r": self.m_r, "m_i": self.m_i,
                "m_r_prime": self.m_r_prime, "I": self.i_value,
                "ell_histogram": {str(k): v for k, v in
                                  sorted(self.ell_histogram.items())}}


def build_stage_profile(index: MonotoneIndex, base: tuple[Clause, ...],
                        path_labels: Sequence[int]) -> StageProfile:
    """Compute the controlled-stage profile for the node reached along
    ``path_labels`` (one label per base level).

    Raises a base reset signal whenever the classification uncovers a
    disjoint family that beats the base collection.  The onemark collection
    C1 is greedily maximal over F1: a free-stage clause of mass 5/2 (one
    variable marked once, two unmarked) would lie in F1 and be disjoint from
    C1.  The twomark collection C_R is the first maximum disjoint family of
    F2R in canonical order; its search stops at m_R clauses.

    Membership is decided on variable bitmasks: ``q0`` (path labels), ``X``
    (sibling pairs), ``once`` (variables marked by exactly one of X and the
    onemark collection) and the X variables of the V1 levels.  One pass over
    the index, in canonical order, builds C1 greedily; a second classifies
    the twice-marked clauses.  So the first structural violation found is
    the one raised.
    """
    t0 = len(base)
    if len(path_labels) != t0:
        raise InternalInvariantError("path does not cover the disjoint prefix")
    pairs: list[tuple[int, int]] = []     # X_i, the sibling pair of level i
    level: dict[int, int] = {}            # X variable -> its level
    q0_mask = x_mask = 0
    # collection members are monotone width-3 clauses of the index
    for i, ((a, b, c), lab) in enumerate(zip(base, path_labels)):
        if lab == a:
            y, z = b, c
        elif lab == b:
            y, z = a, c
        elif lab == c:
            y, z = a, b
        else:
            raise InternalInvariantError("path label not in base clause")
        pairs.append((y, z))
        level[y] = level[z] = i
        q0_mask |= 1 << lab
        x_mask |= 1 << y | 1 << z

    # C1: greedily maximal over F1, the clauses live at u0 (they avoid q0)
    # with exactly one marked variable; ``used`` covers q0 and C1 so far
    c1: list[Clause] = []
    c1_levels: list[int] = []
    c1_at: dict[int, int] = {}            # level in V1 -> its C1 clause's mask
    x_tilde: dict[int, int] = {}
    x_hat: dict[int, int] = {}
    used = q0_mask
    v1_x_mask = 0
    for c, m in index:
        if m & used:
            continue
        xm = m & x_mask
        if not xm or xm & (xm - 1):
            continue
        x = _var(xm)
        i = level[x]
        if i in c1_at:
            # two onemark clauses on the same sibling pair with disjoint
            # tails: swapping them in for base level i grows the base family
            raise BaseResetSignal([base[i]], [c1[c1_levels.index(i)], c],
                                  f"onemark clauses on both X variables of level {i}")
        c1.append(c)
        c1_levels.append(i)
        c1_at[i] = m
        y, z = pairs[i]
        x_tilde[i] = x
        x_hat[i] = z if x == y else y
        v1_x_mask |= 1 << y | 1 << z
        used |= m

    # marking multiplicity at the end of the onemark stage: a clause is
    # twice-marked when two of its variables are marked once and none twice.
    # Q* = q0 | X-tilde, and X-tilde lies inside ``twice``, so skipping
    # clauses that meet q0 | twice also skips those that meet Q*.
    c1_mask = used ^ q0_mask
    once, twice = x_mask ^ c1_mask, x_mask & c1_mask
    skip = q0_mask | twice

    f2r: list[tuple[Clause, int]] = []
    f2r_level: dict[Clause, int] = {}     # F2R clause -> its V1 level
    f2b: list[Clause] = []
    for c, m in index:
        marked = m & once
        if m & skip or marked.bit_count() != 2:
            continue
        v1_x = marked & v1_x_mask
        if v1_x == marked:
            lo = v1_x & -v1_x
            i, j = sorted((level[_var(lo)], level[_var(v1_x ^ lo)]))
            raise BaseResetSignal(
                [base[i], base[j]],
                [c1[c1_levels.index(i)], c1[c1_levels.index(j)], c],
                f"twice-marked clause spans the X pairs of levels {i} and {j}")
        if v1_x:
            i = level[_var(v1_x)]
            tail = marked ^ v1_x
            if not tail & (x_mask | c1_at[i]):
                j = next(j for j, cm in c1_at.items() if cm & tail)
                raise BaseResetSignal(
                    [base[i]], [c1[c1_levels.index(i)], c],
                    f"twice-marked clause pairs level {i} with a tail of level {j}")
            # the second mark is on a VB sibling pair or on level i's tail
            f2r.append((c, m))
            f2r_level[c] = i
        else:
            f2b.append(c)

    if f2r:
        vr = tuple(sorted(set(f2r_level.values())))
        cr = maximum_family(f2r, len(vr))
        cr_level = {c: f2r_level[c] for c in cr}
    else:
        vr = cr = ()
        cr_level = {}
    return StageProfile(t0, base, frozenset(path_labels), tuple(c1),
                        tuple(c1_levels), x_tilde, x_hat, tuple(sorted(x_tilde)),
                        tuple(f2r_level), tuple(f2b), cr, cr_level, vr)


@dataclass(frozen=True)
class TwomarkContext:
    """Path-dependent twomark plan below one end-of-onemark node u: the
    clauses to expand (one level each), the designated falsifying variable per
    clause, and the heavy-clause budget for the free stage underneath."""

    clauses: tuple[Clause, ...]
    fals_vars: tuple[int, ...]
    ell: int
    heavy_budget: int


def twomark_context(profile: StageProfile, onemark_labels: Sequence[int]) -> TwomarkContext:
    """The plan below an end-of-onemark node whose path entered
    ``onemark_labels`` at the t1 onemark levels, one label per C1 member in
    order.  A level took X-tilde when its label is that level's X-tilde
    variable; the C1 members are disjoint, so that is when the variable is
    among the labels.  The twomark stage replays the collection clauses of
    those levels, so its length is their overlap with the collection's
    levels."""
    x_tilde, x_hat, cr_level = profile.x_tilde, profile.x_hat, profile.cr_level
    clauses = tuple(c for c in profile.cr if x_tilde[cr_level[c]] in onemark_labels)
    fals = tuple(x_hat[cr_level[c]] for c in clauses)
    ell = len(clauses)
    budget = profile.m_r_prime + profile.m_b - ell
    return TwomarkContext(clauses, fals, ell, budget)
