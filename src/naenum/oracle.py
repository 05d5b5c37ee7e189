"""Brute-force ground truth over the full assignment space (n <= 24).

The scan meets in the middle.  The variables split into a low half of
ceil(n/2) bits and a high half of floor(n/2) bits.  For each half a table
over its 2^(n/2) half-assignments holds a packed uint64 clause bitset per
entry: bit j is set when the half-assignment makes some literal of clause j
true.  An assignment satisfies the formula iff the OR of its two halves'
entries has every clause bit set.  The not-all-equal scan adds table words
for "some literal false" (the same literal sets with the roles of 1 and 0
swapped), which must come out full too.  The combine runs over row blocks of
the high x low grid no larger than 4 MiB, weights come from per-half
popcounts, and the hits become sorted solution tuples through a bit matrix.

Independent of the search engine by construction: the tables are built from
the clause literals alone, with no clause-selection, tree or collection code
shared, and the direct NAE scan tests "some literal true and some literal
false" on the formula as given, never on its negation closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cnf import Formula, nae_check
from .errors import OracleRefused

MAX_ORACLE_VARS = 24
_BLOCK = 1 << 19        # uint64 entries per combine block (4 MiB)
_WORD = 64
_UNSAT = 0xFF           # above any weight, n <= 24


def _clause_sets(f: Formula) -> tuple[list[int], list[int]]:
    """Entry v-1 of (pos, neg): the clauses that hold literal v, resp. -v,
    as a Python-int bitset over clause indices."""
    pos, neg = [0] * f.n, [0] * f.n
    for j, c in enumerate(f.clauses):
        for l in c:
            if l > 0:
                pos[l - 1] |= 1 << j
            else:
                neg[-l - 1] |= 1 << j
    return pos, neg


def _pack(bitsets: Sequence[int], words: int) -> np.ndarray:
    """Split Python-int bitsets into rows of ``words`` uint64 words."""
    mask = (1 << _WORD) - 1
    return np.array([[(b >> (_WORD * k)) & mask for k in range(words)]
                     for b in bitsets], dtype=np.uint64).reshape(-1, words)


def _half_table(one: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Column i is the OR, over the half's variables k, of row k of ``one``
    when bit k of i is set and of ``zero`` otherwise; one row per word."""
    tab = np.zeros((one.shape[1], 1), dtype=np.uint64)
    for o, z in zip(one, zero):
        tab = np.concatenate((tab | z[:, None], tab | o[:, None]), axis=1)
    return tab


def _popcounts(bits: int) -> np.ndarray:
    """Entry i is the number of set bits of i, for i < 2^bits."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        pc = np.concatenate((pc, pc + 1))
    return pc


def _scan(f: Formula, nae: bool,
          t: int | None) -> tuple[int | None, np.ndarray, np.ndarray]:
    """Return (tau, masks of weight tau, masks of weight t) over the
    assignments that satisfy f, or with ``nae`` that make some literal true
    and some literal false in every clause.  tau is None when none does.

    Assignment mask a = a_lo | a_hi << low.  Every table word must come
    out full: the "some literal true" words, followed for ``nae`` by the
    "some literal false" words.
    """
    low = (f.n + 1) // 2
    words = max(1, -(-len(f.clauses) // _WORD))
    pos, neg = _clause_sets(f)
    packed = _pack(pos + neg + [(1 << len(f.clauses)) - 1], words)
    one, zero, full = packed[:f.n], packed[f.n:-1], packed[-1]
    if nae:
        one, zero = np.hstack((one, zero)), np.hstack((zero, one))
        full = np.concatenate((full, full))
    lo = _half_table(one[:low], zero[:low])
    hi = _half_table(one[low:], zero[low:])
    pc = _popcounts(low)
    want_t = t is not None and 0 <= t <= f.n
    tau = None
    masks, weights = [], []
    rows = max(1, _BLOCK >> low)
    for r0 in range(0, hi.shape[1], rows):
        block = hi[:, r0:r0 + rows, None]
        ok = (lo[0] | block[0]) == full[0]
        for k in range(1, full.size):
            ok &= (lo[k] | block[k]) == full[k]
        weight = pc[r0:r0 + block.shape[1], None] + pc
        least = int(np.min(weight, where=ok, initial=_UNSAT))
        if least == _UNSAT:
            continue
        tau = least if tau is None else min(tau, least)
        keep = weight == tau
        if want_t:
            keep |= weight == t
        hits = np.flatnonzero(keep & ok)
        masks.append(hits + (r0 << low))
        weights.append(weight.ravel()[hits])
    if tau is None:
        empty = np.zeros(0, dtype=np.int64)
        return None, empty, empty
    masks, weights = np.concatenate(masks), np.concatenate(weights)
    at_t = masks[weights == t] if want_t else masks[:0]
    return tau, masks[weights == tau], at_t


def _tuples(masks: np.ndarray, n: int) -> tuple[tuple[int, ...], ...]:
    """Sorted variable tuples of assignment masks that share one weight."""
    if masks.size == 0:
        return ()
    bits = np.unpackbits(masks.astype("<u4").view(np.uint8).reshape(-1, 4),
                         axis=1, count=n, bitorder="little")
    _, cols = np.nonzero(bits)
    cols += 1
    columns = cols.reshape(masks.size, -1).T
    if columns.size == 0:
        return ((),)
    return tuple(zip(*columns[:, np.lexsort(columns[::-1])].tolist()))


@dataclass
class OracleReport:
    """Exact answers for one formula: transversal number, the set of
    minimum-size transversals, and (optionally) the weight-t solution set."""

    n: int
    tau: int | None
    gamma: tuple[tuple[int, ...], ...]
    gamma_count: int
    t: int | None = None
    weight_t_solutions: tuple[tuple[int, ...], ...] = ()


def _require_small(f: Formula) -> None:
    if f.n > MAX_ORACLE_VARS:
        raise OracleRefused(f"n={f.n} exceeds oracle limit {MAX_ORACLE_VARS}")


def brute_force(f: Formula, t: int | None = None) -> OracleReport:
    """Scan all 2^n assignments: exact transversal number, all minimum-size
    transversals, and the full weight-t satisfying set when t is given."""
    _require_small(f)
    tau, at_tau, at_t = _scan(f, False, t)
    if tau is None:
        return OracleReport(f.n, None, (), 0, t, ())
    gamma = _tuples(at_tau, f.n)
    sols = () if t is None else gamma if t == tau else _tuples(at_t, f.n)
    return OracleReport(f.n, tau, gamma, len(gamma), t, sols)


def nae_solutions_direct(f: Formula, t: int) -> tuple[tuple[int, ...], ...]:
    """All weight-t assignments that satisfy and falsify a literal in every
    clause of the (pre-closure) formula."""
    _require_small(f)
    return _tuples(_scan(f, True, t)[2], f.n)


@dataclass
class VerifyReport:
    passed: bool
    duplicates: list[tuple[int, ...]] = field(default_factory=list)
    missing: list[tuple[int, ...]] = field(default_factory=list)
    unexpected: list[tuple[int, ...]] = field(default_factory=list)

    def first_mismatch(self) -> str | None:
        if self.duplicates:
            return f"duplicate: {self.duplicates[0]}"
        if self.missing:
            return f"missing: {self.missing[0]}"
        if self.unexpected:
            return f"unexpected: {self.unexpected[0]}"
        return None


def verify_enumeration(f: Formula, t: int,
                       emitted: Iterable[Sequence[int]]) -> VerifyReport:
    """Check an engine output stream against the oracle's weight-t set:
    set equality and multiplicity exactly one."""
    report = brute_force(f, t)
    expect = set(report.weight_t_solutions)
    seen: set[tuple[int, ...]] = set()
    rep = VerifyReport(passed=True)
    for sol in emitted:
        key = tuple(sorted(int(v) for v in sol))
        if key in seen:
            rep.duplicates.append(key)
        seen.add(key)
        if key not in expect:
            rep.unexpected.append(key)
    rep.missing = sorted(expect - seen)
    rep.passed = not (rep.duplicates or rep.missing or rep.unexpected)
    return rep


def nae_oracle_cross_check(f: Formula, t: int) -> bool:
    """Direct weight-t NAE set of f equals the satisfying weight-t set of its
    negation closure, and every member passes ``nae_check``."""
    from .cnf import negation_closure

    direct = nae_solutions_direct(f, t)
    closed = brute_force(negation_closure(f), t).weight_t_solutions
    return direct == closed and all(nae_check(f, s) for s in direct)
