"""CNF formulas over indexed variables, DIMACS I/O, and the handful of
semantic operations everything else is built on.

Literals are signed integers in DIMACS convention: ``v`` for the positive
literal of variable ``v`` (1-based), ``-v`` for its negation.  A clause is a
tuple of literals sorted by variable; a formula is a deduplicated, canonically
sorted tuple of clauses.  Formulas are immutable and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Iterable

from .errors import DimacsError, TautologyError

Clause = tuple[int, ...]


def _clause_key(clause: Clause) -> tuple:
    return tuple((abs(l), l < 0) for l in clause)


def canonical_clause(literals: Iterable[int]) -> Clause:
    """Sort literals by variable, drop duplicate literals, reject tautologies."""
    lits = sorted(set(literals), key=lambda l: (abs(l), l < 0))
    seen = set()
    for l in lits:
        if -l in seen:
            raise TautologyError(f"variable {abs(l)} occurs with both signs")
        seen.add(l)
    return tuple(lits)


def is_monotone(clause: Clause) -> bool:
    return all(l > 0 for l in clause)


def _byte_vars(first: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the variables that byte value b sets, in ascending order,
    when its bit i stands for variable first + i."""
    table = [()]
    for i in range(8):
        table += [vs + (first + i,) for vs in table]
    return tuple(table)


# the tables of bytes 0, 1 and 2 of a mask whose bit i stands for variable
# i + 1, built once at import
_BYTE_VARS = tuple(_byte_vars(8 * k + 1) for k in range(3))


def mask_tuples(masks: Iterable[int], n: int,
                shift: int = 0) -> list[tuple[int, ...]]:
    """The variables of each mask as an ascending tuple, where bit
    ``v - 1 + shift`` stands for variable v of 1..n.  Each tuple is joined
    from the tuples of the mask's bytes, read off one 256-entry table per
    byte position."""
    if n <= 24:
        t0, t1, t2 = _BYTE_VARS
        s1, s2 = shift + 8, shift + 16
        return [t0[m >> shift & 0xFF] + t1[m >> s1 & 0xFF] + t2[m >> s2]
                for m in masks]
    tables = [_byte_vars(first) for first in range(1, n + 1, 8)]
    size = len(tables)
    return [sum(map(getitem, tables, (m >> shift).to_bytes(size, "little")), ())
            for m in masks]


@dataclass(frozen=True)
class Formula:
    """An n-variable CNF.  ``clauses`` is canonical: per-clause literals sorted
    by variable, clause list sorted and duplicate-free, so structurally equal
    formulas compare equal."""

    n: int
    clauses: tuple[Clause, ...]

    @classmethod
    def of(cls, n: int, clauses: Iterable[Iterable[int]]) -> "Formula":
        canon = sorted({canonical_clause(c) for c in clauses},
                       key=lambda c: (len(c), _clause_key(c)))
        for c in canon:
            for l in c:
                if not 1 <= abs(l) <= n:
                    raise ValueError(f"literal {l} out of range 1..{n}")
        return cls(n, tuple(canon))

    @property
    def max_width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    @cached_property
    def max_var(self) -> int:
        """The highest variable that occurs in a clause, 0 if none: a
        clause's last literal has its highest variable."""
        return max((abs(c[-1]) for c in self.clauses if c), default=0)

    def monotone_clauses(self, width: int | None = None) -> tuple[Clause, ...]:
        out = (c for c in self.clauses if is_monotone(c))
        if width is not None:
            out = (c for c in out if len(c) == width)
        return tuple(out)

    def to_dimacs(self, comments: Iterable[str] = ()) -> str:
        lines = [f"c {c}" for c in comments]
        lines.append(f"p cnf {self.n} {len(self.clauses)}")
        lines.extend(" ".join(str(l) for l in c) + " 0" for c in self.clauses)
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF.  Clauses may span lines; each must end with 0.

    Clauses wider than 3 are accepted here (the reduction generator emits
    them); the search engine rejects them at entry.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    n = m = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    pending_line = 0
    # lines end at \n, \r\n or \r only: str.splitlines() also splits at form
    # feeds and other control characters, which would misnumber the lines
    for lineno, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("%"):
            break
        if s.startswith("p"):
            if n is not None:
                raise DimacsError("duplicate header", lineno)
            parts = s.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {s!r}", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {s!r}", lineno) from None
            if n < 0 or m < 0:
                raise DimacsError(f"malformed header {s!r}", lineno)
            continue
        if n is None:
            raise DimacsError("clause before header", lineno)
        for tok in s.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad token {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                if not 1 <= abs(lit) <= n:
                    raise DimacsError(f"literal {lit} out of range 1..{n}", lineno)
                if not pending:
                    pending_line = lineno
                pending.append(lit)
    if pending:
        raise DimacsError("unterminated clause", pending_line)
    if n is None:
        raise DimacsError("missing header", 1)
    try:
        return Formula.of(n, clauses)
    except TautologyError as exc:
        raise DimacsError(str(exc), pending_line or 1) from exc


def negation_closure(f: Formula) -> Formula:
    """Add the literal-wise negation of every clause.  Idempotent; the set of
    not-all-equal solutions of ``f`` equals the set of satisfying assignments
    of the result."""
    extra = [tuple(-l for l in c) for c in f.clauses]
    return Formula.of(f.n, list(f.clauses) + extra)


def is_negation_closed(f: Formula) -> bool:
    """``negation_closure(f) == f``, decided without rebuilding the closure
    when ``f`` is canonical: every clause's negation is present, and the
    clauses are canonical, in range and strictly in canonical order."""
    clauses = f.clauses
    present = set(clauses)
    prev: tuple = ()
    for c in clauses:
        key = (len(c), _clause_key(c))
        canonical = key > prev and all(abs(a) < abs(b) for a, b in zip(c, c[1:])) \
            and (not c or 0 < abs(c[0]) and abs(c[-1]) <= f.n)
        if not canonical or tuple(-l for l in c) not in present:
            # the rebuild decides, and raises as it always has on
            # tautological or out-of-range clauses
            return negation_closure(f) == f
        prev = key
    return True


def nae_check(f: Formula, ones: Iterable[int]) -> bool:
    """True iff every clause has at least one true and one false literal under
    the assignment with ones exactly on ``ones``."""
    on = set(ones)
    for c in f.clauses:
        some_true = any((l > 0) == (abs(l) in on) for l in c)
        some_false = any((l > 0) != (abs(l) in on) for l in c)
        if not (some_true and some_false):
            return False
    return True
