"""Independent reference helpers for the tests.

The package does not use these: the engine keeps the residual formula as
bitmasks, keeps disjoint collections maximal by construction and reads
survival off marks along a path.  The tests use them to check those fast
paths against direct definitions.  ``disjoint_stage`` is shorthand for the
base collection that the search starts from.

``clause_vars`` and ``satisfies`` read clauses and assignments directly;
``child_nodes``, ``path_ids``, ``q_of`` and ``leaves`` walk a ``DebugTree``
through its nodes' ``children`` and ``parent`` links; and
``f_small_alt_case3`` evaluates ``SMALL_ALT_CASE3``, the paper's second
expression of the four-case ceiling's third case.  ``first_repeat`` is the
exactly-once check as a set of every emitted solution, which the engine
kept until its O(t) check replaced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from naenum import analysis
from naenum.cnf import Clause, Formula, _clause_key
from naenum.matching import greedy_maximal, monotone_index
from naenum.tree import DebugTree, TreeNode


def clause_vars(clause: Clause) -> tuple[int, ...]:
    return tuple(abs(l) for l in clause)


def satisfies(f: Formula, ones: Iterable[int]) -> bool:
    """Does the 0/1 assignment with ones exactly on ``ones`` satisfy ``f``?"""
    on = set(ones)
    return all(any((l > 0 and l in on) or (l < 0 and -l not in on) for l in c)
               for c in f.clauses)


def child_nodes(tree: DebugTree, u: TreeNode) -> list[TreeNode]:
    return [tree.nodes[i] for i in u.children]


def path_ids(tree: DebugTree, v: TreeNode) -> list[int]:
    """Node ids from the root down to ``v``."""
    out = []
    node: TreeNode | None = v
    while node is not None:
        out.append(node.id)
        node = tree.nodes[node.parent] if node.parent is not None else None
    return out[::-1]


def q_of(tree: DebugTree, v: TreeNode) -> tuple[int, ...]:
    """The edge labels from the root down to ``v``: the variables set to 1."""
    labels = []
    node = v
    while node.parent is not None:
        labels.append(node.label)
        node = tree.nodes[node.parent]
    return tuple(labels[::-1])


def leaves(tree: DebugTree) -> Iterator[TreeNode]:
    return (u for u in tree.nodes if u.leaf_kind is not None)


# 2^h (3/2)^(w-2d) (27/8)^((3d-w-h)/2), written as ``analysis`` writes G3
SMALL_ALT_CASE3 = ((analysis._2, (0, 0, 1)), (analysis._3_2, (1, -2, 0)),
                   (analysis._ROOT_27_8, (-1, 3, -1)))


def f_small_alt_case3(w: int, d: int, h: int) -> analysis.QSqrt6:
    """The algebraically equal second form of the third case."""
    return analysis._value(analysis._square_exponents(SMALL_ALT_CASE3), w, d, h)


def first_repeat(solutions: Iterable[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The first solution that repeats an earlier one, or None: the
    exactly-once check as a set of every emitted solution, the reference
    for the engine's O(t) check."""
    seen = set()
    for sol in solutions:
        if sol in seen:
            return sol
        seen.add(sol)
    return None


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
    base = greedy_maximal(monotone_index(f))
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
    path = path_ids(tree, bottom)
    if top.id not in path:
        raise ValueError("top is not an ancestor of bottom")
    path = path[path.index(top.id):]
    marked = 0
    defect = 0
    for nid in path[:-1]:
        node = tree.nodes[nid]
        defect += 3 - len(node.children)
        marked += sum(1 for k in child_nodes(tree, node) if k.marks > 0)
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
                for k in child_nodes(tree, u)), start=Fraction(0))
