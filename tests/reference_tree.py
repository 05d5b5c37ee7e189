"""Frozen reference copy of the Fraction-based tree analyses.

``check_invariants``, ``psi_exact`` and ``edge_constraints`` below are the
implementations that the integer ones in ``naenum.tree`` replaced, kept
verbatim (with the per-node helpers and the ``node_mass`` they called) so the
differential tests can compare the two on real and tampered trees.  Do not
edit them to follow the package.  The tree walks they call, ``child_nodes``,
``path_ids`` and ``leaves``, were ``DebugTree`` methods and now come from
``oracles``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from naenum.selection import FREE, ONEMARK, TWOMARK
from naenum.tree import DebugTree, TreeNode
from oracles import child_nodes, leaves, path_ids


def node_mass(kids: Sequence[tuple[int, int, bool]]) -> Fraction:
    """Expected surviving children: sum of 2^-marks over non-falsifying child
    edges.  ``kids`` holds (label, mark count, falsifying) triples."""
    return sum((Fraction(1, 2 ** m) for _, m, fals in kids if not fals),
               start=Fraction(0))


def effective_width(tree: DebugTree, u: TreeNode) -> int:
    """Children that actually need exploring: clause width at the node minus
    its falsifying child edges."""
    kids = child_nodes(tree, u)
    return len(kids) - sum(1 for k in kids if k.falsifying)


def mass(tree: DebugTree, u: TreeNode) -> Fraction:
    """Expected number of surviving children given the node survives."""
    return node_mass([(k.label, k.marks, k.falsifying) for k in child_nodes(tree, u)])


def marked_child_count(tree: DebugTree, u: TreeNode) -> int:
    return sum(1 for k in child_nodes(tree, u) if k.marks > 0)


def psi_exact(tree: DebugTree) -> Fraction:
    """Exact expected surviving-leaf count: sum over depth-t non-falsified
    leaves of the product of edge survival probabilities along the path."""
    marks = [0] * len(tree.nodes)
    for u in tree.nodes[1:]:            # a parent's id is below its children's
        marks[u.id] = marks[u.parent] + u.marks
    return sum((Fraction(1, 2 ** marks[u.id]) for u in leaves(tree)
                if u.leaf_kind == "viable"), start=Fraction(0))


def edge_constraints(tree: DebugTree) -> list[list[tuple[int, int, int]]]:
    """Per edge, indexed by the node it enters: one (marker, same-label child,
    path child) triple per marker w, the children of w through the edge's
    label and on the path to the edge.  The edge survives an ordering iff
    each same-label child is placed after its path child."""
    nodes = tree.nodes
    cons: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
    for v in nodes[1:]:
        for w_id in v.markers:
            w = nodes[w_id]
            x_child = next(c for c in w.children if nodes[c].label == v.label)
            cons[v.id].append((w_id, x_child, path_ids(tree, v)[w.depth + 1]))
    return cons


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
    n, t = tree.n, tree.t

    light: list[tuple[int, int]] = []   # (leaf id, shoot weight) under 3t - n

    def walk(u: TreeNode, path_marker_ids: set[int], heavy: int,
             budget: int | None, weight: int,    # weight of the root shoot to u
             floor: int):    # marked child edges of the last onemark/twomark node
        if u.depth == t and u.leaf_kind is not None and weight < 3 * t - n:
            light.append((u.id, weight))
        if u.children:
            m = mass(tree, u)
            j = marked_child_count(tree, u)
            if m > Fraction(6 - j, 2):
                bad.append(f"node {u.id}: {j}-marked mass {m} > {Fraction(6-j,2)}")
            if u.depth >= tree.t0 and len(u.children) == 3 and j == 0:
                bad.append(f"node {u.id}: width-3 expansion at depth {u.depth} unmarked")
            if u.stage == TWOMARK:
                if not any(k.falsifying and k.marks > 0 for k in child_nodes(tree, u)):
                    bad.append(f"node {u.id}: twomark node lacks a marked falsifying edge")
                if effective_width(tree, u) > 2:
                    bad.append(f"node {u.id}: twomark node effective width > 2")
                if m > Fraction(3, 2):
                    bad.append(f"node {u.id}: twomark node mass {m} > 3/2")
            if u.stage in (ONEMARK, TWOMARK):
                if j != (1 if u.stage == ONEMARK else 2):
                    bad.append(f"node {u.id}: {j} marked child edges at a {u.stage} node")
                if j < floor:
                    bad.append(f"node {u.id}: marked child edges fall from {floor} to {j}")
                floor = j
            if u.stage == FREE and tree.route == "controlled" and j == 1:
                if m > Fraction(9, 4):
                    bad.append(f"node {u.id}: once-marked free node mass {m} > 9/4")
        if u.heavy_budget is not None:
            budget = u.heavy_budget
            heavy = 0
        if u.stage == FREE and tree.route == "controlled" and u.children:
            kids = child_nodes(tree, u)
            if (len(kids) == 3 and not any(k.falsifying for k in kids)
                    and sorted(k.marks for k in kids) == [0, 1, 1]):
                heavy += 1
                if budget is not None and heavy > budget:
                    bad.append(f"node {u.id}: heavy count {heavy} exceeds budget {budget}")
        weight += marked_child_count(tree, u) + 3 - len(u.children)
        for k in child_nodes(tree, u):
            shared = set(k.markers) & path_marker_ids
            if shared and not k.falsifying:
                bad.append(f"edge into {k.id}: marker {sorted(shared)[0]} shared "
                           f"with an ancestor edge but child not falsified")
            walk(k, path_marker_ids | set(k.markers), heavy, budget, weight, floor)

    walk(tree.root, set(), 0, None, 0, 0)
    bad += [f"leaf {i}: shoot weight {w} < {3*t-n}" for i, w in sorted(light)]
    return bad
