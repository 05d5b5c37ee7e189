"""Independent reference helpers for the tests.

The package does not use these: the engine keeps the residual formula as
bitmasks, keeps disjoint collections maximal by construction and reads
survival off marks along a path.  The tests use them to check those fast
paths against direct definitions.  ``disjoint_stage`` is shorthand for the
base collection that the search starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from naenum.cnf import Clause, Formula, _clause_key, clause_vars
from naenum.matching import greedy_maximal
from naenum.tree import DebugTree, TreeNode


def simplify(f: Formula, ones: Iterable[int]) -> Formula:
    """Set the given variables to 1: delete satisfied clauses, strip falsified
    negative literals.  The variable universe stays ``f.n``."""
    on = set(ones)
    out = []
    for c in f.clauses:
        if any(l > 0 and l in on for l in c):
            continue
        out.append(tuple(l for l in c if not (l < 0 and -l in on)))
    return Formula(f.n, tuple(sorted(set(out), key=lambda c: (len(c), _clause_key(c)))))


def disjoint_stage(f: Formula) -> tuple[tuple[Clause, ...], int]:
    """The greedily-maximal base collection of ``f``'s monotone width-3
    clauses, and its size t0."""
    base = greedy_maximal(f.monotone_clauses(3))
    return base, len(base)


def is_maximal(coll: Sequence[Clause], candidates: Iterable[Clause]) -> bool:
    used = {v for c in coll for v in clause_vars(c)}
    return all(set(clause_vars(c)) & used for c in set(candidates) - set(coll))


@dataclass(frozen=True)
class ShootStats:
    marked_edge_count: int
    defect: int

    @property
    def weight(self) -> int:
        return self.marked_edge_count + self.defect


def shoot_stats(tree: DebugTree, top: TreeNode, bottom: TreeNode) -> ShootStats:
    """Stats over the shoot from ``top`` to its descendant ``bottom``: the path
    edges plus all child edges of path nodes other than ``bottom``."""
    path = tree.path_ids(bottom)
    if top.id not in path:
        raise ValueError("top is not an ancestor of bottom")
    path = path[path.index(top.id):]
    marked = 0
    defect = 0
    for nid in path[:-1]:
        node = tree.nodes[nid]
        defect += 3 - len(node.children)
        marked += sum(1 for k in tree.child_nodes(node) if k.marks > 0)
    return ShootStats(marked, defect)


def sigma_edge(node: TreeNode) -> Fraction:
    """Survival probability of the edge into ``node`` under uniformly random
    sibling orderings (0 for falsifying edges)."""
    return Fraction(0) if node.falsifying else Fraction(1, 2 ** node.marks)


def psi_of_node(tree: DebugTree, u: TreeNode) -> Fraction:
    """Recursive survival value: 1 at viable leaves, 0 at falsified ones, and
    the sigma-weighted child sum at internal nodes."""
    if u.leaf_kind == "viable":
        return Fraction(1)
    if u.leaf_kind == "falsified":
        return Fraction(0)
    return sum((sigma_edge(k) * psi_of_node(tree, k)
                for k in tree.child_nodes(u)), start=Fraction(0))
