"""Collections of pairwise variable-disjoint clauses.

Maximum 3-set packing is NP-hard, so the base and onemark collections are
greedily maximal, and the base grows whenever a structural check exposes a
strictly larger disjoint family ("reset"): at most n times.  The twomark
collection is a maximum family of a small pool (``maximum_family``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cnf import Clause, clause_vars
from .errors import InternalInvariantError

# Stage tags, by what the stage expands with: the pairwise-disjoint prefix,
# once-marked clauses, twice-marked width-reduced clauses.
BASE = "base"
ONEMARK = "onemark"
TWOMARK = "twomark"


@dataclass(frozen=True)
class ResetEvent:
    stage: str
    old_size: int
    new_size: int
    witness: tuple[Clause, ...]

    def as_dict(self) -> dict:
        return {"stage": self.stage, "old_size": self.old_size,
                "new_size": self.new_size,
                "witness": [list(c) for c in self.witness]}


@dataclass
class DisjointCollection:
    """Ordered list of pairwise variable-disjoint clauses.

    The order is the expansion order of tree levels, so it is kept canonical
    (sorted) for reproducibility."""

    members: list[Clause]
    universe_tag: str = BASE

    def __post_init__(self):
        _check_disjoint(self.members, self.universe_tag)

    def __len__(self) -> int:
        return len(self.members)

    def variables(self) -> frozenset[int]:
        return frozenset(v for c in self.members for v in clause_vars(c))


def var_mask(clause: Clause) -> int:
    """Bit v set for every variable v of the clause."""
    m = 0
    for l in clause:
        m |= 1 << abs(l)
    return m


def _check_disjoint(clauses: Sequence[Clause], tag: str) -> None:
    seen = 0                       # bit v: variable v is covered
    for c in clauses:
        m = var_mask(c)
        if m & seen:
            raise InternalInvariantError(
                f"{tag}: clauses not pairwise variable-disjoint: {clauses}")
        seen |= m


def greedy_maximal(candidates: Iterable[Clause], tag: str = BASE,
                   keep: Sequence[Clause] = ()) -> DisjointCollection:
    """Scan candidates in canonical order, adding every clause disjoint from
    the collection so far.  ``keep`` seeds the collection (used after resets).
    The result is maximal: no candidate is disjoint from all members."""
    members = list(keep)
    chosen = set(members)
    used = 0                       # bit v: variable v is covered
    for c in members:
        used |= var_mask(c)
    for c in sorted(set(candidates)):
        m = var_mask(c)
        if not m & used and c not in chosen:
            members.append(c)
            chosen.add(c)
            used |= m
    members.sort()
    return DisjointCollection(members, tag)


def maximum_family(pool: Sequence[Clause], bound: int) -> list[Clause]:
    """The first maximum pairwise-disjoint family of ``pool`` in canonical
    order: a depth-first search in that order keeps each family larger than
    all before it, and stops at ``bound`` clauses, which none can exceed."""
    masks = [var_mask(c) for c in pool]
    best: list[int] = []
    chosen: list[int] = []

    def grow(start: int, used: int) -> bool:
        for i in range(start, len(pool)):
            if len(chosen) + len(pool) - i <= len(best):
                return False        # the rest of the pool cannot beat best
            if not masks[i] & used:
                chosen.append(i)
                if len(chosen) > len(best):
                    best[:] = chosen
                if len(best) == bound or grow(i + 1, used | masks[i]):
                    return True
                chosen.pop()
        return False

    grow(0, 0)
    return [pool[i] for i in best]


def attempt_reset(coll: DisjointCollection, removed: Iterable[Clause],
                  added: Iterable[Clause],
                  extend_from: Iterable[Clause] = ()) -> ResetEvent | None:
    """Replace ``removed`` members by ``added`` clauses if that strictly grows
    the collection; afterwards re-extend greedily over ``extend_from`` so the
    collection stays maximal.  Returns the event, or None for a no-op.

    The caller guarantees disjointness of the witness; a violation means the
    structural argument that produced it is wrong, and is raised as an
    internal error rather than an input error.
    """
    removed = list(removed)
    added = list(added)
    for c in removed:
        if c not in coll.members:
            raise InternalInvariantError(f"reset removes non-member {c}")
    survivors = [c for c in coll.members if c not in removed]
    new_members = survivors + [c for c in added if c not in survivors]
    if len(new_members) <= len(coll.members):
        return None
    _check_disjoint(new_members, coll.universe_tag)
    grown = greedy_maximal(extend_from, coll.universe_tag, keep=new_members)
    event = ResetEvent(coll.universe_tag, len(coll.members), len(grown),
                       tuple(sorted(added)))
    coll.members = grown.members
    return event
