"""Materialized transversal trees for inspection, exhaustive-ordering runs,
and structural invariant sweeps.

The search engine normally keeps only path-local state; this module holds the
fully expanded tree it can optionally record (small n only), the exact
survival value psi, the survival kernel over sibling orderings and the
structural invariant sweep.  The kernel keeps its per-edge flags packed, one
bit per ordering and 8 orderings to a byte; ``row_counts`` and
``column_counts`` count them.

psi and the sweep's mass ceilings are computed in integers: a sum of 2^-marks
is held as a numerator over 2^top, top the largest mark count in the sum, and
a ceiling is compared by cross-multiplication.  A ``Fraction`` is built once
for psi, and for the sweep only to word a violation.  Each edge's path comes
from one top-down table of path tuples, not from a walk to the root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .selection import FREE, ONEMARK, TWOMARK, StageProfile


@dataclass
class TreeNode:
    id: int
    depth: int
    parent: int | None
    label: int | None               # edge label from the parent, None at root
    markers: tuple[int, ...]        # ancestors with a child edge of this label
    falsifying: bool
    stage: str | None = None        # stage of the clause expanding this node
    children: list[int] = field(default_factory=list)
    leaf_kind: str | None = None    # None (internal) | "falsified" | "viable"
    heavy_budget: int | None = None  # set on end-of-onemark nodes

    @property
    def marks(self) -> int:
        return len(self.markers)


@dataclass
class DebugTree:
    n: int
    t: int
    route: str
    t0: int
    nodes: list[TreeNode]
    profiles: list[StageProfile] = field(default_factory=list)
    stats: object | None = None

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def internal(self) -> Iterator[TreeNode]:
        return (u for u in self.nodes if u.children)


def psi_exact(tree: DebugTree) -> Fraction:
    """Exact expected surviving-leaf count: sum over depth-t non-falsified
    leaves of the product of edge survival probabilities along the path,
    summed in integers over 2^top, top the most marks on such a path."""
    nodes = tree.nodes
    marks = [0] * len(nodes)
    for u in nodes[1:]:                 # a parent's id is below its children's
        marks[u.id] = marks[u.parent] + len(u.markers)
    viable = [marks[u.id] for u in nodes if u.leaf_kind == "viable"]
    top = max(viable, default=0)
    return Fraction(sum(1 << (top - m) for m in viable), 1 << top)


def edge_constraints(tree: DebugTree) -> list[list[tuple[int, int, int]]]:
    """Per edge, indexed by the node it enters: one (marker, same-label child,
    path child) triple per marker w, the children of w through the edge's
    label and on the path to the edge.  The edge survives an ordering iff
    each same-label child is placed after its path child."""
    nodes = tree.nodes
    cons: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
    paths = [(0,)] * len(nodes)         # node ids from the root, top-down
    same: dict[int, dict[int, int]] = {}    # marker id -> {label: child id}
    for v in nodes[1:]:                 # a parent's id is below its children's
        path = paths[v.id] = paths[v.parent] + (v.id,)
        for w_id in v.markers:
            w = nodes[w_id]
            if w_id not in same:
                same[w_id] = {nodes[c].label: c for c in w.children}
            cons[v.id].append((w_id, same[w_id][v.label], path[w.depth + 1]))
    return cons


# _AFTER[k][i][j] bit c, c < 6: code c of k <= 3 siblings puts child i after
# child j, where code c means order c mod k!, as k! divides 6
_AFTER = {k: [[sum(1 << c for c, p in enumerate(itertools.islice(
                   itertools.cycle(itertools.permutations(range(k))), 6))
                   if p.index(i) > p.index(j)) for j in range(k)] for i in range(k)]
          for k in (1, 2, 3)}


class SurvivalKernel:
    """Edge survival and surviving viable leaves over columns of orderings,
    for the psi sampler and the exhaustive sweep alike.

    Sibling group g is the k children of ``groups[g]``, the g-th internal
    node; its code, in [0, ``orders[g]`` = k!), indexes
    ``itertools.permutations(range(k))``, the order they are explored in.
    ``run`` takes a (groups, columns) code array, one joint ordering per
    column; it reads a code c in [0, 6) as code c mod k!, so a code drawn
    uniformly from [0, 6) is uniform on every group's orders.  Each edge's
    ok flag is evaluated once, from its marker constraints, and packed 8
    orderings to a byte; "alive" is propagated top-down by depth on the
    packed bytes."""

    def __init__(self, tree: DebugTree):
        nodes = tree.nodes
        self.groups = [u.id for u in nodes if u.children]
        self.orders = np.array([math.factorial(len(nodes[u].children))
                                for u in self.groups], dtype=np.uint8)
        group_of = {u: g for g, u in enumerate(self.groups)}
        # row r holds each constrained edge's r-th constraint: the marker's
        # group and the bitmask of codes that pass it; edges with fewer
        # constraints are padded with one that every code passes
        cons = [(v, c) for v, c in enumerate(edge_constraints(tree)) if c]
        self.con_edges = np.array([v for v, _ in cons], dtype=np.intp)
        shape = (max((len(c) for _, c in cons), default=0), len(cons))
        self.con_group = np.zeros(shape, dtype=np.intp)
        self.con_bits = np.full(shape, 0xFF, dtype=np.uint8)
        for e, (_, triples) in enumerate(cons):
            for r, (w, x_child, path_child) in enumerate(triples):
                kids = nodes[w].children
                self.con_group[r, e] = group_of[w]
                self.con_bits[r, e] = _AFTER[len(kids)][kids.index(x_child)][
                    kids.index(path_child)]
        self.size = len(nodes)
        depth = np.array([u.depth for u in nodes])
        parent = np.array([u.parent or 0 for u in nodes])
        self.levels = [(ids, parent[ids]) for ids in
                       (np.flatnonzero(depth == d) for d in range(1, depth.max() + 1))]
        self.viable = np.flatnonzero([u.leaf_kind == "viable" for u in nodes])

    def run(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ok, alive), packed: bit j % 8 of byte j // 8 of ``ok[v]`` is set
        iff the edge into node v passes its marker constraints in ordering j,
        and of ``alive[i]`` iff each edge to ``viable[i]`` does.  The padding
        bits of the last byte are 0."""
        columns = codes.shape[1]
        ok = np.empty((self.size, (columns + 7) // 8), dtype=np.uint8)
        ok[:] = np.packbits(np.ones(columns, dtype=bool), bitorder="little")
        hit = (self.con_bits[..., None] >> codes[self.con_group]) & 1
        ok[self.con_edges] = np.packbits(np.bitwise_and.reduce(hit, axis=0),
                                         axis=1, bitorder="little")
        alive = ok.copy()
        for ids, parents in self.levels:
            alive[ids] &= alive[parents]
        return ok, alive[self.viable]


# set bits of each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                          axis=1).sum(axis=1, dtype=np.uint8)


def row_counts(packed: np.ndarray) -> np.ndarray:
    """Set bits per row of a packed ``SurvivalKernel.run`` matrix: per edge,
    the orderings it survives."""
    return _POPCOUNT[packed].sum(axis=1, dtype=np.int64)


def column_counts(packed: np.ndarray, columns: int) -> np.ndarray:
    """Set bits per ordering of a packed ``SurvivalKernel.run`` matrix with
    ``columns`` orderings: per ordering, the surviving leaves of ``alive``."""
    return np.unpackbits(packed, axis=1, count=columns,
                         bitorder="little").sum(axis=0, dtype=np.int64)


def export_lines(tree: DebugTree) -> list[str]:
    """Line-oriented dump: one node per line with depth, parent edge label,
    mark count, stage, and leaf kind."""
    out = []
    for u in tree.nodes:
        out.append(f"{u.depth} {u.label if u.label is not None else '-'} "
                   f"{u.marks} {u.stage or u.leaf_kind or '-'} "
                   f"{u.leaf_kind or 'internal'}")
    return out


def check_invariants(tree: DebugTree) -> list[str]:
    """Structural sweep over a materialized tree.  Returns human-readable
    violation strings; an empty list means the tree is clean.

    Checks: disjoint marking of non-falsifying edges (a marker shared with an
    ancestor edge forces a falsified child), a mark on some child of every
    three-child (width-3, as nothing is pruned) node past the disjoint prefix,
    the shoot weight floor 3t - n on depth-t shoots, per-mark mass ceilings,
    the twomark-stage shape (a designated falsifying edge, effective width at
    most 2, mass at most 3/2), the 9/4 mass ceiling for once-marked free-stage
    nodes on the controlled route, the per-shoot heavy-clause budget, and the
    marks rule (1 marked child per onemark node, 2 per twomark, never falling).
    """
    bad: list[str] = []
    n, t, nodes = tree.n, tree.t, tree.nodes
    controlled = tree.route == "controlled"

    light: list[tuple[int, int]] = []   # (leaf id, shoot weight) under 3t - n

    def walk(u: TreeNode, path_markers: frozenset[int], heavy: int,
             budget: int | None, weight: int,    # weight of the root shoot to u
             floor: int):    # marked child edges of the last onemark/twomark node
        if u.depth == t and u.leaf_kind is not None and weight < 3 * t - n:
            light.append((u.id, weight))
        if not u.children:
            return
        kids = [nodes[i] for i in u.children]
        marks = [len(k.markers) for k in kids]
        j = len(marks) - marks.count(0)
        # the mass is num / 2^top: the ceilings are compared as integers
        top = max(marks)
        num = sum(1 << (top - m) for k, m in zip(kids, marks) if not k.falsifying)
        if 2 * num > (6 - j) << top:
            bad.append(f"node {u.id}: {j}-marked mass {Fraction(num, 1 << top)} "
                       f"> {Fraction(6 - j, 2)}")
        if u.depth >= tree.t0 and len(kids) == 3 and j == 0:
            bad.append(f"node {u.id}: width-3 expansion at depth {u.depth} unmarked")
        if u.stage == TWOMARK:
            if not any(k.falsifying and k.markers for k in kids):
                bad.append(f"node {u.id}: twomark node lacks a marked falsifying edge")
            if sum(1 for k in kids if not k.falsifying) > 2:
                bad.append(f"node {u.id}: twomark node effective width > 2")
            if 2 * num > 3 << top:
                bad.append(f"node {u.id}: twomark node mass "
                           f"{Fraction(num, 1 << top)} > 3/2")
        if u.stage in (ONEMARK, TWOMARK):
            if j != (1 if u.stage == ONEMARK else 2):
                bad.append(f"node {u.id}: {j} marked child edges at a {u.stage} node")
            if j < floor:
                bad.append(f"node {u.id}: marked child edges fall from {floor} to {j}")
            floor = j
        if u.stage == FREE and controlled and j == 1 and 4 * num > 9 << top:
            bad.append(f"node {u.id}: once-marked free node mass "
                       f"{Fraction(num, 1 << top)} > 9/4")
        if u.heavy_budget is not None:
            budget = u.heavy_budget
            heavy = 0
        if (u.stage == FREE and controlled and len(kids) == 3
                and not any(k.falsifying for k in kids) and sorted(marks) == [0, 1, 1]):
            heavy += 1
            if budget is not None and heavy > budget:
                bad.append(f"node {u.id}: heavy count {heavy} exceeds budget {budget}")
        weight += j + 3 - len(kids)
        for k in kids:
            below = path_markers    # an unmarked edge shares its parent's set
            if k.markers:
                shared = path_markers.intersection(k.markers)
                if shared and not k.falsifying:
                    bad.append(f"edge into {k.id}: marker {min(shared)} shared "
                               f"with an ancestor edge but child not falsified")
                below = path_markers.union(k.markers)
            walk(k, below, heavy, budget, weight, floor)

    walk(tree.root, frozenset(), 0, None, 0, 0)
    bad += [f"leaf {i}: shoot weight {w} < {3*t-n}" for i, w in sorted(light)]
    return bad
