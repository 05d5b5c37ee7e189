"""Collections of pairwise variable-disjoint clauses: sorted tuples, whose
order is the expansion order of their tree levels.

Maximum 3-set packing is NP-hard, so the base and onemark collections are
greedily maximal.  Only the base resets: it grows whenever a structural check
exposes a strictly larger disjoint family, at most n times.  The twomark
collection is a maximum family of a small pool (``maximum_family``).

Collections are built from a ``monotone_index``, a formula's monotone
width-3 clauses in canonical order with their variable masks: it is sorted
and free of duplicates already, and no builder masks a clause again.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cnf import Clause, Formula
from .errors import InternalInvariantError


def var_mask(clause: Clause) -> int:
    """Bit v set for every variable v of the clause."""
    m = 0
    for l in clause:
        m |= 1 << abs(l)
    return m


MonotoneIndex = tuple[tuple[Clause, int], ...]


def monotone_index(f: Formula) -> MonotoneIndex:
    """The formula's monotone width-3 clauses in its own order, each with
    its variable bitmask: canonical and free of duplicates when the formula
    is, as ``Formula.of`` makes it and the engine requires."""
    return tuple((c, var_mask(c)) for c in f.monotone_clauses(3))


def check_disjoint(clauses: Sequence[Clause]) -> tuple[Clause, ...]:
    """``clauses`` as a tuple; raises if two of them share a variable."""
    seen = 0                       # bit v: variable v is covered
    for c in clauses:
        m = var_mask(c)
        if m & seen:
            raise InternalInvariantError(
                f"clauses not pairwise variable-disjoint: {clauses}")
        seen |= m
    return tuple(clauses)


def greedy_maximal(index: MonotoneIndex,
                   keep: Sequence[Clause] = ()) -> tuple[Clause, ...]:
    """Scan a monotone index, adding every clause disjoint from the
    collection so far.  ``keep``, pairwise disjoint, seeds the collection
    (used after resets).  The result is maximal: no clause of the index is
    disjoint from all members."""
    members = list(keep)
    used = 0                       # bit v: variable v is covered
    for c in members:
        used |= var_mask(c)
    for c, m in index:
        if not m & used:
            members.append(c)
            used |= m
    members.sort()
    return tuple(members)


def maximum_family(pool: Sequence[tuple[Clause, int]],
                   bound: int) -> tuple[Clause, ...]:
    """The first maximum pairwise-disjoint family of ``pool``, clauses in
    canonical order with their variable masks: a depth-first search in that
    order keeps each family larger than all before it, and stops at
    ``bound`` clauses, which none can exceed."""
    best: list[int] = []
    chosen: list[int] = []

    def grow(start: int, used: int) -> bool:
        for i in range(start, len(pool)):
            if len(chosen) + len(pool) - i <= len(best):
                return False        # the rest of the pool cannot beat best
            m = pool[i][1]
            if not m & used:
                chosen.append(i)
                if len(chosen) > len(best):
                    best[:] = chosen
                if len(best) == bound or grow(i + 1, used | m):
                    return True
                chosen.pop()
        return False

    grow(0, 0)
    return tuple(pool[i][0] for i in best)


def attempt_reset(members: Sequence[Clause], removed: Sequence[Clause],
                  added: Iterable[Clause],
                  extend_from: MonotoneIndex) -> tuple[Clause, ...] | None:
    """The collection with ``removed`` members replaced by ``added`` clauses,
    re-extended greedily over the monotone index ``extend_from`` so it stays
    maximal, if the swap strictly grows it; None for a no-op.  ``members`` is
    not changed.

    The caller guarantees disjointness of the witness; a violation means the
    structural argument that produced it is wrong, and is raised as an
    internal error rather than an input error.
    """
    for c in removed:
        if c not in members:
            raise InternalInvariantError(f"reset removes non-member {c}")
    survivors = [c for c in members if c not in removed]
    new_members = survivors + [c for c in added if c not in survivors]
    if len(new_members) <= len(members):
        return None
    check_disjoint(new_members)
    return greedy_maximal(extend_from, keep=new_members)
