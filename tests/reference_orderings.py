"""Frozen reference copy of the per-leaf survival loops.

``enumerate_all_orderings`` and ``_tree_survival_samples`` below are the
implementations that the per-edge survival kernel in ``naenum.tree`` replaced,
kept verbatim with the ordering counter they called (each rebuilt its own path
lists and marker constraints) so the differential tests can compare the two.
Do not edit it to follow the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from naenum.cnf import Formula
from naenum.errors import BudgetExceeded
from naenum.tree import DebugTree
from naenum.treesearch import ExhaustiveReport, build_debug_tree


def count_orderings(tree: DebugTree) -> int:
    total = 1
    for u in tree.internal():
        k = len(u.children)
        for i in range(2, k + 1):
            total *= i
    return total


def enumerate_all_orderings(f: Formula, t: int, budget: int = 10 ** 6,
                            keep_per_ordering: bool = False) -> ExhaustiveReport:
    """Evaluate every joint sibling ordering of the transversal tree: exact
    per-edge survival frequencies and the exact average surviving-leaf count.
    Refuses when the ordering product exceeds ``budget``."""
    from naenum.tree import psi_exact

    tree = build_debug_tree(f, t)
    total = count_orderings(tree)
    if total > budget:
        raise BudgetExceeded(f"{total} orderings exceed budget {budget}")

    nodes = tree.nodes
    n_nodes = len(nodes)
    paths: list[list[int]] = [[] for _ in range(n_nodes)]
    for u in nodes:
        paths[u.id] = (paths[u.parent] + [u.id]) if u.parent is not None else [u.id]
    # per-edge constraints: (marker id, its same-label child, its path child)
    cons: list[list[tuple[int, int, int]]] = [[] for _ in range(n_nodes)]
    for v in nodes[1:]:
        for w_id in v.markers:
            w = nodes[w_id]
            x_child = next(c for c in w.children if nodes[c].label == v.label)
            path_child = paths[v.id][w.depth + 1]
            cons[v.id].append((w_id, x_child, path_child))

    internal = [u for u in nodes if u.children]
    perm_lists = [list(itertools.permutations(u.children)) for u in internal]
    rank = [0] * n_nodes
    survived_count = [0] * n_nodes
    total_surviving = 0
    per_ordering: list[tuple[tuple, int]] | None = [] if keep_per_ordering else None

    alive = [False] * n_nodes
    alive[0] = not tree.root.leaf_kind == "falsified"
    for combo in itertools.product(*perm_lists):
        for ordered in combo:
            for pos, cid in enumerate(ordered):
                rank[cid] = pos
        LL = 0
        for v in nodes[1:]:
            superf = any(rank[xc] < rank[pc] for _, xc, pc in cons[v.id])
            edge_ok = (not superf) and (not v.falsifying)
            if edge_ok:
                survived_count[v.id] += 1
            alive[v.id] = alive[v.parent] and edge_ok
            if v.leaf_kind == "viable" and alive[v.id] and v.depth == t:
                LL += 1
        if t == 0 and tree.root.leaf_kind == "viable":
            LL = 1
        total_surviving += LL
        if per_ordering is not None:
            per_ordering.append((combo, LL))

    edge_survival = {v.id: Fraction(survived_count[v.id], total)
                     for v in nodes[1:] if not v.falsifying}
    return ExhaustiveReport(total, total_surviving, edge_survival,
                            psi_exact(tree), tree, per_ordering)


def _tree_survival_samples(f: Formula, t: int, samples: int, seed: int,
                           batch: int = 256) -> np.ndarray:
    """Vectorized sampling on the materialized tree: each edge draws an i.i.d.
    uniform priority; a sibling ordering reads priorities ascending, so a leaf
    survives iff every marker's same-label child edge draws a higher priority
    than the marker's path child edge."""
    from naenum.treesearch import build_debug_tree

    tree = build_debug_tree(f, t)
    nodes = tree.nodes
    n_nodes = len(nodes)
    paths: list[list[int]] = [[] for _ in range(n_nodes)]
    for u in nodes:
        paths[u.id] = (paths[u.parent] + [u.id]) if u.parent is not None else [u.id]

    pairs_x: list[int] = []
    pairs_p: list[int] = []
    ptr: list[int] = []
    free_leaves = 0
    for leaf in nodes:
        if leaf.leaf_kind != "viable":
            continue
        cons: list[tuple[int, int]] = []
        for v_id in paths[leaf.id][1:]:
            v = nodes[v_id]
            for w_id in v.markers:
                w = nodes[w_id]
                x_child = next(c for c in w.children if nodes[c].label == v.label)
                cons.append((x_child, paths[v.id][w.depth + 1]))
        if not cons:
            free_leaves += 1
            continue
        ptr.append(len(pairs_x))
        for xc, pc in cons:
            pairs_x.append(xc)
            pairs_p.append(pc)

    rng = np.random.default_rng(seed)
    out = np.empty(samples, dtype=np.int64)
    ax = np.array(pairs_x, dtype=np.int64)
    ap = np.array(pairs_p, dtype=np.int64)
    aptr = np.array(ptr, dtype=np.int64)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        prio = rng.random((n_nodes, b))
        if len(aptr):
            ok = prio[ax] > prio[ap]
            surv = np.logical_and.reduceat(ok, aptr, axis=0)
            counts = surv.sum(axis=0) + free_leaves
        else:
            counts = np.full(b, free_leaves, dtype=np.int64)
        out[done:done + b] = counts
        done += b
    return out
