"""Pruned depth-first enumeration of weight-t transversals.

The tree shape is fixed by the staged clause selection (it never depends on
sibling orderings); the traversal order does.  Before the search crosses an
edge it checks whether the edge's label already appeared on a child edge to
the left of the current path — crossing such an edge could only revisit
solution sets already reachable further left, so it is skipped.  With that
rule every weight-t transversal is emitted exactly once, at its leftmost leaf.

The residual formula at a node is four Python-int bitmasks, passed down the
recursion by value: ``Q`` (bit v: variable v is set to 1 on the path), ``P``
(bit r: the clause of free-pick rank r is positive and live, i.e. not hit by
``Q`` and with every negative literal falsified), ``U`` (bit v: entering v
would falsify an all-negative clause) and ``L`` (bit v: label v sits on a
child edge left of the path).  A child's masks are computed from its parent's
in time proportional to the occurrences of its label, so backtracking is just
returning: no trail is kept, and a reset signal unwinds any number of levels
without repair.  Clauses are ranked by the key (width, variables) of their
positive literals, so the free pick is the lowest set bit of ``P`` and "no
live positive clause" is ``P == 0``.  A node steps into each non-leaf child
in its own loop.  Depth-t children settle in a loop of their own, with no
frame and no path label written: its counts stay in locals until the loop
ends, and a leaf's waking clauses are scanned only when none of its parent's
live clauses stays live, as a leaf is a solution iff none stays live and
none wakes.  The debug tree records a node's leaf children before that loop
and enters it with an empty left-label mask, as it skips no edge.
A non-leaf child's ``U`` is its parent's plus the unit clauses its label x
leaves.  That addition depends only on x and on ``Q`` within ``N(x)``, the
variables of the all-negative clauses with literal ``-x``, so each engine
memoises it in one dict of at most ``_FALS_MEMO_CAP`` entries, cleared on a
miss once full.  Path labels and per-depth ordering hashes live in
depth-indexed arrays that a child overwrites.  The label mark counters are
raised and lowered around an expansion only where they are read: on the
controlled route and in the debug tree.  A solution is its ``Q`` mask, the
set of its path labels.  A count keeps no solution list; a collect buffers
the masks and turns them into sorted tuples (``cnf.mask_tuples``) once the
search settles.  The per-variable tables and the masks span the variables
up to the highest that occurs in a clause, whatever the header's n.
The exactly-once check, on with the debug assertions, keeps O(t) state:
each node also receives ``C``, the labels left of its path as ``L`` holds
them, which no skip reads.  No node may be entered with ``Q & C`` nonzero,
and no solution emitted through a label of ``C``: such a path repeats
solutions of the subtree to its left.  And in a search a node's id is its
visit count, checked on entry, so a node searched twice is caught too.
The controlled stage keeps its state on the engine, as the path does: the
depth-t0 node u0 builds the stage profile into ``prof``, an end-of-onemark
node the twomark plan into ``k2`` from the labels of the onemark levels
(``selection.twomark_context``), and a heavy free-stage clause sits on
``heavies`` while its node's children are expanded.  The stage checks read
the label mark counters and the falsifying mask ``U`` directly.  A width-3
free-stage clause below u0 is tested in ``_node`` itself: only a live clause
with no variable marked twice and one or two marked once reaches
``_stage_checks``, which raises on a once-marked clause and pushes a heavy
one.  The free route runs none of this.

Random sibling orderings come from a counter-based stream (splitmix64 as a
path hash, after Salmon et al., SC 2011): a node's order is a function of the
seed and its path labels alone, computed from its parent's hash in a few
integer operations.  The ``OrderingSource`` docstring gives the stream
exactly.  No search draws at depth t - 1: a depth-t leaf's siblings carry
other labels, so its outcome depends only on the left labels its parent
received, and such a node emits its solutions in clause-variable order.

Each call also builds one ``monotone_index`` of the formula (its monotone
width-3 clauses in canonical order with their variable masks).  The base
greedy, each base reset and every controlled-stage profile read it, so a
depth-t0 node's profile is built in two passes of mask tests over it rather
than from a fresh scan of the formula.  The index lives only as long as the
engine.

The base collection, a sorted tuple of clauses and the only collection that
resets, is maximal over that index (``greedy_maximal`` builds it, each base
reset re-extends it), so below depth t0, where every base variable is
marked, no width-3 expansion is unmarked: it is a monotone width-3 clause,
which meets a base variable.  Under debug assertions each attempt checks
this premise once against the index's masks.

The parallel driver (``parallel=k``) searches the subtree below each live
root child in a worker process, as the whole search would, and merges the
results in the root's order: it reports what the sequential run reports.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import numpy as np

from .cnf import Clause, Formula, is_negation_closed, mask_tuples
from .errors import (BudgetExceeded, InputNotClosed, InternalInvariantError,
                     ParameterError, PreconditionViolated, WidthError)
from .matching import (attempt_reset, check_disjoint, greedy_maximal,
                       monotone_index, var_mask)
from .selection import (BASE, FREE, ONEMARK, TWOMARK, BaseResetSignal,
                        StageProfile, TwomarkContext, branch_on_t0,
                        build_stage_profile, twomark_context)
from .tree import (DebugTree, SurvivalKernel, TreeNode, psi_exact,
                   row_counts)

PROFILE_CAP = 512
DEBUG_TREE_MAX_N = 24
_ORDERING_BLOCK = 4096      # joint orderings per survival-kernel call
_FALS_MEMO_CAP = 4096       # entries of an engine's falsifying-mask memo

_M64 = 2 ** 64 - 1


def _splitmix64(z: int) -> int:
    """The splitmix64 output function of Steele, Lea and Flood (OOPSLA 2014)
    applied to ``z + 0x9E3779B97F4A7C15``, on integers modulo 2^64."""
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


# per clause width k <= 3: the lexicographic permutations of range(k), the
# draw limit k! * floor(2^64 / k!) below which d mod k! is exactly uniform,
# and one tuple picker per permutation (k >= 2; one label needs no draw)
_PERMS = [tuple(itertools.permutations(range(k))) for k in range(4)]
_DRAW_LIMIT = [len(perms) * (2 ** 64 // len(perms)) for perms in _PERMS]
_PICK = [tuple(itemgetter(*p) for p in perms) if len(perms) > 1 else ()
         for perms in _PERMS]


@dataclass(frozen=True)
class OrderingSource:
    """How sibling edges are ordered during traversal.  ``random`` draws each
    node's ordering from a stream keyed by (seed, path labels), so the order
    at a node never depends on how sibling subtrees were explored, and every
    ordering of a node's children is exactly equally likely.

    The stream, exactly: splitmix64(z) adds 0x9E3779B97F4A7C15 to z, then
    does z ^= z >> 30, z *= 0xBF58476D1CE4E5B9, z ^= z >> 27,
    z *= 0x94D049BB133111EB and z ^= z >> 31, all modulo 2^64.  The root's
    hash is splitmix64(seed mod 2^64), and the child entered through label x
    gets splitmix64(h ^ x), where h is its parent's hash.  A node with k
    children draws d from its hash h: d = h, and while
    d >= k! * floor(2^64 / k!), d = splitmix64(d).  Its children, in
    clause-variable order, are then permuted by entry d mod k! of the
    lexicographic list itertools.permutations(range(k)): position i of the
    new order holds the child at index perm[i].  Re-mixing changes only d,
    never the hash passed to the children.

    No search draws at depth t - 1, where a draw could only reorder emitted
    solutions: a depth-t leaf's siblings carry other labels, so its outcome
    depends only on the left labels its parent received.  A node there takes
    its children in clause-variable order."""

    kind: str = "fixed"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("fixed", "random"):
            raise ParameterError(
                f"ordering kind {self.kind!r} is not 'fixed' or 'random'")
        object.__setattr__(self, "seed", as_int(self.seed, "ordering seed"))

    @classmethod
    def fixed(cls) -> "OrderingSource":
        return cls("fixed", 0)

    @classmethod
    def random(cls, seed: int) -> "OrderingSource":
        return cls("random", seed)


@dataclass(eq=False)
class SearchStats:
    nodes_visited: int = 0
    leaves_visited: int = 0          # surviving depth-t leaves
    falsified_leaves: int = 0
    superfluous_skips: int = 0
    solutions_emitted: int = 0
    route: str = ""
    t0: int = 0
    resets: dict = field(default_factory=lambda: {BASE: 0})     # only the base resets
    reset_events: list = field(default_factory=list)
    profiles_truncated: bool = False
    # the first PROFILE_CAP controlled-stage profiles: dicts, then the
    # StageProfile objects not yet read, converted on first read of profiles
    _profiles: list = field(default_factory=list, repr=False)
    _unread: list = field(default_factory=list, repr=False)

    @property
    def profiles(self) -> list:
        """``StageProfile.as_dict()`` of the first ``PROFILE_CAP`` stage
        profiles of the run, in build order."""
        if self._unread:
            self._profiles.extend(prof.as_dict() for prof in self._unread)
            self._unread = []
        return self._profiles

    def as_dict(self) -> dict:
        return {"nodes_visited": self.nodes_visited,
                "leaves_visited": self.leaves_visited,
                "falsified_leaves": self.falsified_leaves,
                "superfluous_skips": self.superfluous_skips,
                "solutions_emitted": self.solutions_emitted,
                "route": self.route, "t0": self.t0,
                "resets": dict(self.resets),
                "reset_events": list(self.reset_events),
                "profiles": list(self.profiles),
                "profiles_truncated": self.profiles_truncated}


def as_int(value, what: str) -> int:
    """``value`` as an int: numpy integers are accepted, ``None``, floats and
    strings raise ``ParameterError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{what}={value!r} is not an integer") from None


def validate_engine_input(f: Formula, t: int) -> int:
    """Refuse what the engine cannot search; return ``t`` as an int."""
    if f.max_width > 3:
        raise WidthError(f"engine accepts width <= 3, found width {f.max_width}")
    t = as_int(t, "target weight t")
    if not 0 <= t <= f.n:
        raise ParameterError(f"target weight t={t} outside 0..{f.n}")
    if not is_negation_closed(f):
        raise InputNotClosed("formula is not negation-closed; close it first")
    return t


class _Engine:
    # every attribute an engine sets, so instances carry no __dict__; a new
    # attribute needs its name here
    __slots__ = ("n", "top", "t", "record", "debug_assertions", "check_once",
                 "draw_below", "hashes", "path", "mono3_index",
                 "has_empty_clause",
                 "pick", "wake_by", "fals_by", "fals_vars", "fals_memo",
                 "live0", "unit0", "keep_by",
                 "base", "stats", "buffer", "t0", "route",
                 "discarded_leaves", "tree_nodes", "tree_profiles",
                 "keep_marks", "label_cnt", "label_nodes",
                 "prof", "k2", "heavies")

    def __init__(self, f: Formula, t: int, ordering: OrderingSource,
                 *, debug_assertions: bool = True,
                 record: bool = False, collect: bool = True,
                 base: Sequence[Clause] | None = None):
        t = validate_engine_input(f, t)
        self.n = f.n
        # the highest variable that occurs: the per-variable tables, the
        # masks and the solution tuples span 0..top, whatever the header's n
        self.top = f.max_var
        self.t = t
        self.record = record
        self.debug_assertions = debug_assertions
        # the exactly-once check; the unpruned debug tree repeats solutions
        self.check_once = debug_assertions and not record
        # nodes above depth t - 1 draw their child order; no search observes
        # the last level's (OrderingSource), and the fixed order draws nowhere
        self.draw_below = t - 1 if ordering.kind == "random" else 0
        self.hashes = [_splitmix64(ordering.seed & _M64)] + [0] * t
        self.path = [0] * t              # label entered at each depth

        # monotone width-3 clauses with their variable masks, read by the
        # base greedy and by every stage profile of this call
        self.mono3_index = monotone_index(f)
        self.has_empty_clause = any(len(c) == 0 for c in f.clauses)
        self._index_clauses(f)

        self.base = (greedy_maximal(self.mono3_index) if base is None
                     else check_disjoint(base))
        self.stats = SearchStats()
        # the solutions in emission order, or None to count them only: their
        # Q masks while the search runs, their sorted tuples once it settles
        self.buffer: list | None = [] if collect else None

    def _index_clauses(self, f: Formula) -> None:
        """Per-variable occurrence masks and lists, in O(total literals + top).
        Clauses with a positive literal get a bit each, ranked by (width,
        variables) of their positive literals; all-negative ones feed the
        falsifying mask."""
        top = self.top
        posvars = [tuple(l for l in c if l > 0) for c in f.clauses]
        ranked = sorted((i for i, pv in enumerate(posvars) if pv),
                        key=lambda i: (len(posvars[i]), posvars[i]))
        self.pick = [posvars[i] for i in ranked]        # free labels per rank
        sat_by = [0] * (top + 1)     # ranks of the clauses a literal +v hits
        # per v: (negated-variable mask, positive-variable mask, rank bit) of
        # each ranked clause with literal -v, and the variable mask of each
        # all-negative clause with literal -v
        self.wake_by: list[list[tuple[int, int, int]]] = [[] for _ in sat_by]
        self.fals_by: list[list[int]] = [[] for _ in sat_by]
        # per v: N(v), the variables of the all-negative clauses with
        # literal -v
        nbr = [0] * (top + 1)
        self.live0 = self.unit0 = 0                     # P and U at the root
        for r, i in enumerate(ranked):
            bit = 1 << r
            neg = sum(1 << -l for l in f.clauses[i] if l < 0)
            for v in posvars[i]:
                sat_by[v] |= bit
            self.live0 |= 0 if neg else bit
            # live once all its negated variables are set, unless hit by then
            for l in f.clauses[i]:
                if l < 0:
                    self.wake_by[-l].append((neg, sum(1 << v for v in posvars[i]), bit))
        self.keep_by = [~m for m in sat_by]
        for c, pv in zip(f.clauses, posvars):
            if c and not pv:
                neg = sum(1 << -l for l in c)
                self.unit0 |= neg if len(c) == 1 else 0
                for l in c:
                    self.fals_by[-l].append(neg)
                    nbr[-l] |= neg
        # N(v) and v itself above bit top, so that (Q | -1 << top + 1) &
        # fals_vars[v] keys the falsifying-mask memo on v and Q within N(v)
        # (see _node); 0 where N(v) is empty, as such a step adds nothing
        self.fals_vars = [m | v << top + 1 if m else 0 for v, m in enumerate(nbr)]
        self.fals_memo: dict[int, int] = {}

    # ------------------------------------------------------------------
    # drivers

    def _begin_attempt(self) -> None:
        self.t0 = len(self.base)
        if self.debug_assertions:
            used = sum(map(var_mask, self.base))    # disjoint members
            if any(not m & used for _, m in self.mono3_index):
                raise InternalInvariantError("base collection is not maximal")
        self.route = branch_on_t0(self.t0, self.n)
        if self.buffer is not None:
            self.buffer.clear()
        self.stats.solutions_emitted = 0
        self.discarded_leaves = self.stats.leaves_visited
        self.tree_nodes: list[TreeNode] = [TreeNode(0, 0, None, None, (), False)]
        self.tree_profiles: list[StageProfile] = []
        self.keep_marks = self.record or self.route == "controlled"
        self.label_cnt = [0] * (self.top + 1)
        self.label_nodes: list[list[int]] = ([[] for _ in self.label_cnt]
                                             if self.record else [])
        # below u0: its profile, the twomark plan, the shoot's heavy clauses
        self.prof: StageProfile | None = None
        self.k2: TwomarkContext | None = None
        self.heavies: list[Clause] = []

    def run(self, root: int | None = None) -> None:
        """Search until one attempt finishes without a reset.

        Only the base collection resets: a base reset signal unwinds to
        here, the base is grown, and the attempt restarts at the root.  Each
        reset strictly grows the base, so the loop ends.

        With a ``root`` label, a live root child as the parallel driver hands
        out, only the subtree under that child is searched, as the whole
        search would (the labels left of it feed the left-label mask), and a
        base reset is raised to the caller, with the stats counted so far."""
        while True:
            self._begin_attempt()
            try:
                if self.has_empty_clause:
                    self.stats.falsified_leaves += 1
                    self.tree_nodes[0].leaf_kind = "falsified"
                else:
                    self.stats.nodes_visited += 1
                    Q, P, U, L, depth = 0, self.live0, self.unit0, 0, 0
                    if root is not None:
                        order = self._order_children(0, self.base[0])
                        L = sum(1 << y for y in order[:order.index(root)])
                        for y in order:
                            self.label_cnt[y] += 1
                        Q, P, U = self._step(0, root, Q, P, U)
                        depth = 1
                    if depth < self.t:
                        # in a search, a node's id is its visit count
                        self._node(depth, Q, P, U, L, L,
                                   0 if self.record else self.stats.nodes_visited)
                    else:       # a leaf: t = 0, or t = 1 below a root label
                        self.stats.leaves_visited += 1
                        self.tree_nodes[0].leaf_kind = "viable"
                        if not P:
                            self.stats.solutions_emitted += 1
                            if self.buffer is not None:
                                self.buffer.append(Q)
                break
            except BaseResetSignal as sig:
                if root is not None:
                    raise
                self._apply_base_reset(sig)
        self.stats.route = self.route
        self.stats.t0 = self.t0
        buf = self.buffer
        if buf is not None:
            # in place, a block at a time, so that each block's masks are
            # freed before the next block's tuples are built
            for i in range(0, len(buf), 4096):
                buf[i:i + 4096] = mask_tuples(buf[i:i + 4096], self.top, 1)

    def _apply_base_reset(self, sig: BaseResetSignal) -> None:
        grown = attempt_reset(self.base, sig.removed, sig.added, self.mono3_index)
        if grown is None:
            raise InternalInvariantError(
                f"base reset did not grow the collection: {sig.reason}")
        self.stats.resets[BASE] += 1
        self.stats.reset_events.append({
            "stage": BASE, "old_size": len(self.base), "new_size": len(grown),
            "witness": [list(c) for c in sorted(sig.added)],
            "reason": sig.reason})
        self.base = grown

    # ------------------------------------------------------------------
    # recursion: one frame per tree level

    def _step(self, depth: int, x: int, Q: int, P: int, U: int) -> tuple[int, int, int]:
        """Masks of the child entered through label ``x`` at ``depth``; also
        records the label on the path."""
        self.path[depth] = x
        Q |= 1 << x
        P &= self.keep_by[x]
        for neg in self.fals_by[x]:
            rest = neg & ~Q
            if not rest & (rest - 1):
                if not rest:
                    raise InternalInvariantError("entered a falsified child")
                U |= rest
        for neg, pos, bit in self.wake_by[x]:
            if not (neg & ~Q or pos & Q):
                P |= bit
        return Q, P, U

    def _node(self, depth: int, Q: int, P: int, U: int, L: int, C: int,
              node_id: int) -> None:
        stats = self.stats
        record = self.record
        if not P:
            raise PreconditionViolated(
                f"{sorted(self.path[:depth])} is a transversal of weight "
                f"{depth} < t={self.t}")
        # exactly-once: C holds the labels left of the path as L does, but
        # no skip reads it, so no path may enter one of them; and a node
        # is entered with its visit count as its id, so a node searched
        # again carries a stale one
        check = self.check_once
        if check and (Q & C or node_id != stats.nodes_visited):
            why = (f"the path enters left label(s) "
                   f"{mask_tuples([Q & C], self.top, 1)[0]}" if Q & C
                   else "its node is searched twice")
            raise InternalInvariantError(
                f"each solution (below path {tuple(self.path[:depth])}) "
                f"emitted twice: {why}")
        # stage selection: base levels, then (below u0) the onemark clauses,
        # the twomark plan, and the free pick; base, onemark and twomark
        # clauses come from the monotone index, so each is its own label tuple
        heavy = False
        if depth < self.t0:
            labels, stage = self.base[depth], BASE
        elif self.route != "controlled":
            labels, stage = self.pick[(P & -P).bit_length() - 1], FREE
        else:
            k = depth - self.t0
            if not k:
                self.prof = build_stage_profile(self.mono3_index, self.base, self.path[:depth])
            prof = self.prof
            j = k - len(prof.c1)
            if j < 0:
                labels, stage = prof.c1[k], ONEMARK
            else:
                if not j:
                    self.k2 = k2 = twomark_context(prof, self.path[self.t0:depth])
                    prof.ell_histogram[k2.ell] = prof.ell_histogram.get(k2.ell, 0) + 1
                    if record:
                        self.tree_nodes[node_id].heavy_budget = k2.heavy_budget
                k2 = self.k2
                if j < k2.ell:
                    labels, stage = k2.clauses[j], TWOMARK
                    self._stage_checks(labels, stage, k2.fals_vars[j], U)
                else:
                    labels, stage = self.pick[(P & -P).bit_length() - 1], FREE
                    if len(labels) == 3:
                        # the guards of a live clause with marks (0, 0, 1) or
                        # (0, 1, 1): none above 1, and one or two in all
                        x, y, z = labels
                        cnt = self.label_cnt
                        a, b, c = cnt[x], cnt[y], cnt[z]
                        if ((a | b | c) < 2 and 0 < a + b + c < 3
                                and not U & (1 << x | 1 << y | 1 << z)):
                            heavy = self._stage_checks(labels, stage, None, U)

        order = self._order_children(depth, labels) if depth < self.draw_below else labels
        if self.keep_marks:
            for x in labels:
                self.label_cnt[x] += 1
                if record:
                    self.label_nodes[x].append(node_id)
        # each child's step is _step inlined, its U step memoised
        keep_by, wake_by = self.keep_by, self.wake_by
        leaf = depth + 1 == self.t
        if record:
            self.tree_nodes[node_id].stage = stage
            L = C = 0               # the debug tree skips no edge
            if leaf:                # ids as in preorder: leaves have no subtree
                for x in order:
                    self._record_child(node_id, depth, x, bool(U >> x & 1))
        if leaf:
            # depth-t leaves settle here: a leaf is a solution iff no live
            # clause stays (P & keep_by[x]) and none wakes.  A node's labels
            # are distinct, so no leaf's label joins L for its siblings
            skips = falsified = emitted = 0
            buf, left = self.buffer, C if check else 0
            for x in order:
                bit = 1 << x
                if L & bit:
                    skips += 1
                elif U & bit:
                    falsified += 1
                elif not P & keep_by[x]:
                    Qx = Q | bit
                    for neg, pos, _ in wake_by[x]:
                        if not (neg & ~Qx or pos & Qx):
                            break
                    else:
                        if left & bit:
                            self.path[depth] = x
                            raise InternalInvariantError(
                                f"solution {tuple(sorted(self.path))} emitted twice")
                        emitted += 1
                        if buf is not None:
                            buf.append(Qx)
            visited = len(order) - skips - falsified
            stats.superfluous_skips += skips
            stats.falsified_leaves += falsified
            stats.nodes_visited += visited
            stats.leaves_visited += visited
            stats.solutions_emitted += emitted
        else:
            path, fals_by, fals_vars = self.path, self.fals_by, self.fals_vars
            memo, hi = self.fals_memo, -1 << self.top + 1
            for x in order:
                bit = 1 << x
                child_id = self._record_child(node_id, depth, x, bool(U & bit)) if record else 0
                if L & bit:
                    stats.superfluous_skips += 1
                elif U & bit:
                    stats.falsified_leaves += 1
                else:
                    visits = stats.nodes_visited = stats.nodes_visited + 1
                    path[depth] = x
                    Qx = Q | bit
                    Px = P & keep_by[x]
                    for neg, pos, b in wake_by[x]:
                        if not (neg & ~Qx or pos & Qx):
                            Px |= b
                    # the unit clauses x leaves depend on x and on Q within
                    # N(x) only, so the step is memoised on both
                    key = (Qx | hi) & fals_vars[x]
                    add = memo.get(key)
                    if add is None:
                        add = 0
                        for neg in fals_by[x]:
                            rest = neg & ~Qx
                            if not rest & (rest - 1):
                                if not rest:
                                    raise InternalInvariantError("entered a falsified child")
                                add |= rest
                        if len(memo) >= _FALS_MEMO_CAP:
                            memo.clear()
                        memo[key] = add
                    self._node(depth + 1, Qx, Px, U | add, L, C, child_id or visits)
                L |= bit
                C |= bit
        if self.keep_marks:
            for x in labels:
                self.label_cnt[x] -= 1
                if record:
                    self.label_nodes[x].pop()
            if heavy:
                self.heavies.pop()
            if depth == self.t0 and self.route == "controlled":
                if record:
                    self.tree_profiles.append(self.prof)
                if len(stats._unread) < PROFILE_CAP:
                    stats._unread.append(self.prof)
                else:
                    stats.profiles_truncated = True

    def _record_child(self, node_id: int, depth: int, x: int, fals: bool) -> int:
        child_id = len(self.tree_nodes)
        child = TreeNode(child_id, depth + 1, node_id, x,
                         tuple(self.label_nodes[x][:-1]), fals)
        if fals or depth + 1 == self.t:         # the debug tree skips no edge
            child.leaf_kind = "falsified" if fals else "viable"
        self.tree_nodes.append(child)
        self.tree_nodes[node_id].children.append(child_id)
        return child_id

    # ------------------------------------------------------------------
    # expansion

    def _order_children(self, depth: int, labels: tuple[int, ...]) -> Sequence[int]:
        """The node's child order; where it draws (above ``draw_below``), also
        stores the node's hash, which its parent's hash and the entered label
        fix."""
        if depth >= self.draw_below:
            return labels
        hashes = self.hashes
        if depth:
            hashes[depth] = _splitmix64(hashes[depth - 1] ^ self.path[depth - 1])
        k = len(labels)
        if k < 2:
            return labels
        d = hashes[depth]
        while d >= _DRAW_LIMIT[k]:
            d = _splitmix64(d)
        pick = _PICK[k]
        return pick[d % len(pick)](labels)

    def _stage_checks(self, labels: tuple[int, ...], stage: str,
                      fals_var: int | None, U: int) -> bool:
        """Guards of a twomark node, or of a live width-3 free-stage clause
        below u0 with no variable marked twice and one or two marked once
        (``_node`` tests that inline); True iff the free-stage clause is heavy
        and went onto ``heavies``."""
        cnt = self.label_cnt
        if stage == TWOMARK:
            if not self.debug_assertions:
                return False
            if fals_var not in labels or not U >> fals_var & 1:
                raise InternalInvariantError(
                    f"twomark clause {labels}: designated edge {fals_var} not falsifying")
            # width <= 3 and a falsifying designated edge leave at most two
            # live children.  The mass is num / 2^top: the ceiling is
            # compared as integers
            marks = [cnt[x] for x in labels if not U >> x & 1]
            top = max(marks, default=0)
            num = sum(1 << top - m for m in marks)
            if 2 * num > 3 << top:
                raise InternalInvariantError(
                    f"twomark clause {labels}: mass {Fraction(num, 1 << top)} > 3/2")
            return False
        x, y, z = labels
        if cnt[x] + cnt[y] + cnt[z] == 1:
            # Unreachable while C1 is maximal over F1.  The clause is
            # monotone and live, so it avoids the path labels q0; the
            # base collection is maximal, so it meets an X variable,
            # which carries a base mark.  That X variable is its only
            # marked one and is marked once, and its two other variables
            # are unmarked: the clause lies in F1 and is disjoint from
            # C1's variables, contradicting C1's maximality over F1.
            raise InternalInvariantError(
                f"once-marked free-stage clause {labels} of mass "
                f"5/2: the onemark collection is not maximal")
        if len(self.heavies) >= self.k2.heavy_budget:
            self._heavy_overflow(labels)
        self.heavies.append(labels)
        return True

    def _heavy_overflow(self, clause: Clause) -> None:
        prof, k2 = self.prof, self.k2
        heavies = self.heavies + [clause]
        r = [c for c in heavies if c in prof.f2r]
        b = [c for c in heavies if c in prof.f2b]
        if len(r) + k2.ell > prof.m_r_prime:
            # the plan's clauses and the pool heavies: a disjoint F2R family
            raise InternalInvariantError(
                f"{k2.ell + len(r)} disjoint twomark-pool clauses on one shoot, "
                f"but the maximum twomark collection holds {prof.m_r_prime}")
        if len(b) > prof.m_b:
            t_side = [prof.base[i] for i in prof.v1]
            raise BaseResetSignal(
                list(prof.base), b + t_side,
                f"{len(b)} disjoint heavy clauses outside the twomark pool")
        raise InternalInvariantError(
            f"heavy budget {k2.heavy_budget} exceeded without a witness: "
            f"{len(r)} pool heavies, {len(b)} outside")


# ----------------------------------------------------------------------
# public entry points


def enumerate_solutions(f: Formula, t: int,
                        ordering: OrderingSource | None = None,
                        *, debug_assertions: bool = True,
                        parallel: int = 1) -> SearchStats:
    """Emit every weight-t satisfying assignment of a negation-closed 3-CNF
    exactly once, assuming no satisfying assignment has weight below t
    (violations are detected and raised when the search trips over them).

    The search recurses one interpreter frame per tree level above the
    leaves; a t too deep for the recursion limit raises ``ParameterError``."""
    return _run(f, t, ordering, collect=False, debug_assertions=debug_assertions,
                parallel=parallel).stats


def _run(f: Formula, t: int, ordering: OrderingSource | None, *, collect: bool,
         debug_assertions: bool = True, parallel: int = 1) -> _Engine:
    """The engine of a settled run, the master one when ``parallel`` > 1; a
    search deeper than the recursion limit is refused here."""
    ordering = ordering or OrderingSource.fixed()
    parallel = as_int(parallel, "parallel")
    if parallel < 1:
        raise ParameterError(f"parallel={parallel} is below 1")
    try:
        if parallel > 1:
            return _parallel_enumerate(f, t, ordering, collect, parallel,
                                       debug_assertions)
        eng = _Engine(f, t, ordering, debug_assertions=debug_assertions,
                      collect=collect)
        eng.run()
    except RecursionError:
        raise ParameterError(
            f"target weight t={t} needs a search deeper than the interpreter "
            f"recursion limit {sys.getrecursionlimit()} allows") from None
    return eng


def surviving_leaves(f: Formula, t: int, ordering: OrderingSource,
                     *, debug_assertions: bool = True) -> int:
    """Surviving depth-t leaves of the search under ``ordering``, counting
    only the tree that the run settled on.  ``SearchStats.leaves_visited``
    also counts the leaves of attempts that a reset threw away."""
    eng = _run(f, t, ordering, collect=False, debug_assertions=debug_assertions)
    return eng.stats.leaves_visited - eng.discarded_leaves


def count_solutions(f: Formula, t: int,
                    ordering: OrderingSource | None = None,
                    **kw) -> tuple[int, SearchStats]:
    stats = enumerate_solutions(f, t, ordering, **kw)
    return stats.solutions_emitted, stats


def collect_solutions(f: Formula, t: int,
                      ordering: OrderingSource | None = None,
                      **kw) -> tuple[list[tuple[int, ...]], SearchStats]:
    eng = _run(f, t, ordering, collect=True, **kw)
    return eng.buffer, eng.stats


def build_debug_tree(f: Formula, t: int) -> DebugTree:
    """Materialize the full transversal tree (no ordering, no pruning) for
    invariant sweeps and exhaustive-ordering analysis.  Small n only."""
    if f.n > DEBUG_TREE_MAX_N:
        raise ParameterError(f"debug trees limited to n <= {DEBUG_TREE_MAX_N}")
    eng = _Engine(f, t, OrderingSource.fixed(), record=True,
                  debug_assertions=True, collect=False)
    eng.run()
    tree = DebugTree(f.n, t, eng.route, eng.t0, eng.tree_nodes,
                     eng.tree_profiles)
    tree.stats = eng.stats
    return tree


# ----------------------------------------------------------------------
# exhaustive orderings


@dataclass
class ExhaustiveReport:
    """Aggregate of a full sweep over every joint sibling ordering."""

    orderings: int
    total_surviving: int
    edge_survival: dict[int, Fraction]   # node id of a non-falsifying edge
    predicted_psi: Fraction              # sum over viable leaves of 2^-marks
    tree: DebugTree

    @property
    def mean_surviving(self) -> Fraction:
        return Fraction(self.total_surviving, self.orderings)


def enumerate_all_orderings(f: Formula, t: int,
                            budget: int = 10 ** 6) -> ExhaustiveReport:
    """Evaluate every joint sibling ordering of the transversal tree: exact
    per-edge survival frequencies and the exact average surviving-leaf count.
    Refuses when the ordering product exceeds ``budget``."""
    budget = as_int(budget, "budget")
    tree = build_debug_tree(f, t)
    total = math.prod(math.factorial(len(u.children)) for u in tree.internal())
    if total > budget:
        raise BudgetExceeded(f"{total} orderings exceed budget {budget}")
    kernel = SurvivalKernel(tree)
    # ordering i is the code vector of i in mixed radix, so the orderings run
    # in itertools.product order: the last sibling group varies fastest
    stride = (total // np.cumprod(kernel.orders, dtype=np.int64))[:, None]
    survived_count = np.zeros(len(tree.nodes), dtype=np.int64)
    total_surviving = 0
    for start in range(0, total, _ORDERING_BLOCK):
        index = np.arange(start, min(start + _ORDERING_BLOCK, total))
        codes = index // stride % kernel.orders[:, None]
        ok, alive = kernel.run(codes.astype(np.uint8))
        survived_count += row_counts(ok)
        total_surviving += int(row_counts(alive).sum())
    edge_survival = {v.id: Fraction(int(survived_count[v.id]), total)
                     for v in tree.nodes[1:] if not v.falsifying}
    return ExhaustiveReport(total, total_surviving, edge_survival,
                            psi_exact(tree), tree)


# ----------------------------------------------------------------------
# parallel driver


def _subtree_worker(args):
    """Search the subtree under one root child.  Returns the subtree's stats
    (``SearchStats.as_dict()``), its solutions when collecting, and what cut
    it short: a base reset as (removed, added, reason), or None.  A
    precondition violation comes back as (None, None, the exception), to be
    raised where the sequential run would raise it."""
    f, t, ordering, collect, debug_assertions, base, root = args
    eng = _Engine(f, t, ordering, debug_assertions=debug_assertions,
                  collect=collect, base=base)
    try:
        eng.run(root)
    except BaseResetSignal as sig:
        return eng.stats.as_dict(), None, (sig.removed, sig.added, sig.reason)
    except PreconditionViolated as exc:
        return None, None, exc
    return eng.stats.as_dict(), eng.buffer, None


def _parallel_enumerate(f: Formula, t: int, ordering: OrderingSource,
                        collect: bool, workers: int,
                        debug_assertions: bool) -> _Engine:
    """The search with one task per live root child, merged in the root's
    order into what the sequential run reports: the root and each falsified
    child are counted here, and a child's worker that hits a base reset ends
    the attempt there, its partial stats included."""
    from concurrent.futures import ProcessPoolExecutor

    eng = _Engine(f, t, ordering, debug_assertions=debug_assertions,
                  collect=collect)
    if not eng.base or not t or eng.has_empty_clause:
        eng.run()           # the root is no base level, or it has no child
        return eng
    stats = eng.stats
    while True:
        eng._begin_attempt()
        order = eng._order_children(0, eng.base[0])
        tasks = [(f, t, ordering, collect, eng.debug_assertions, eng.base, x)
                 for x in order if not eng.unit0 >> x & 1]
        # the fork start method launches every worker on the first submit
        size = min(workers, len(tasks) or 1, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            results = iter(list(pool.map(_subtree_worker, tasks)))
        stats.nodes_visited += 1
        stop = None
        for x in order:
            if eng.unit0 >> x & 1:
                stats.falsified_leaves += 1
                continue
            sub, buf, stop = next(results)
            if sub is None:
                raise stop
            for name in ("nodes_visited", "leaves_visited", "falsified_leaves",
                         "superfluous_skips", "solutions_emitted"):
                setattr(stats, name, getattr(stats, name) + sub[name])
            room = PROFILE_CAP - len(stats.profiles)
            if sub["profiles_truncated"] or len(sub["profiles"]) > room:
                stats.profiles_truncated = True
            stats.profiles.extend(sub["profiles"][:room])
            if stop is not None:
                break
            if collect:
                eng.buffer.extend(buf)
        if stop is None:
            break
        eng._apply_base_reset(BaseResetSignal(*stop))
    stats.route, stats.t0 = eng.route, eng.t0
    return eng
