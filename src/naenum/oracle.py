"""Brute-force ground truth over the full assignment space (n <= 24).

The scan meets in the middle.  The variables split into a low half of
ceil(n/2) bits and a high half of floor(n/2) bits.  For each half a table
over its 2^(n/2) half-assignments holds a packed uint64 clause bitset per
entry: bit j is set when the half-assignment makes some literal of clause j
true.  An assignment satisfies the formula iff the OR of its two halves'
entries has every clause bit set.  The not-all-equal scan adds table words
for "some literal false" (the same literal sets with the roles of 1 and 0
swapped), which must come out full too.

The combine pairs low entries with the distinct high signatures only, as
high entries with one table column pair alike: the high half of
``maj(24, 3)`` has 216 of them among its 4,096 entries.  It tests every
(signature, low entry) pair in blocks of at most 512 KiB.  A signature keeps
its high entries' least weight and a bitmask of their weights, so a block
finds the least satisfying weight, lowers the running tau to it, and keeps
only the satisfying pairs with a high entry that brings the weight to tau
or t.  The kept pairs expand to assignment masks through an index of the
high entries by (signature, weight), so no array holds assignments of other
weights.  The masks of one weight become sorted tuples after one sort: two
sorted tuples of one size first differ at the least element of their
symmetric difference, the earlier tuple holds it, and after reversing the
bits of the masks it is their highest differing bit.  Tuple order is thus
descending order of the bit-reversed masks.  (Sets of different sizes
break the argument: a tuple precedes its extensions.)  Each tuple is then
read off its mask a byte at a time by ``cnf.mask_tuples``: a table per byte
position maps each byte value to the variables its set bits stand for, in
ascending order, and the three byte tuples join into the mask's tuple.

Independent of the search engine by construction: the tables are built from
the clause literals alone, with no clause-selection, tree or collection code
shared (the engine turns its solution masks into tuples with the same
``cnf.mask_tuples``), and the direct NAE scan tests "some literal true and
some literal false" on the formula as given, never on its negation closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cnf import Formula, mask_tuples, nae_check
from .errors import OracleRefused

MAX_ORACLE_VARS = 24
# uint64 entries per combine block (512 KiB).  On a 2-core VM, 4 MiB blocks
# made scans of random 3-CNF at n = 24 10-40% slower, and as a block's size
# follows the signature count, they left glibc holding up to 5 MB of freed heap
_BLOCK = 1 << 16
_WORD = 64
_UNSAT = 0xFF           # above any weight, n <= 24


# each byte value with its 8 bits in reverse order
_REV8 = np.packbits(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1),
                    axis=1, bitorder="little").ravel().astype(np.int64)


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
    high = f.n - low
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
    # the distinct high columns, compared as one byte string each: high row
    # i has signature sig[:, inv[i]]
    cols = np.ascontiguousarray(hi.T)
    _, first, inv = np.unique(cols.view(f"V{cols.itemsize * len(hi)}").ravel(),
                              return_index=True, return_inverse=True)
    sig = hi[:, first]
    # the high rows by (signature s, weight w): those of key s * (high + 1)
    # + w are order[start[key]:start[key] + count[key]]; pc covers the high
    # rows' weights too, as high <= low
    key = inv * (high + 1) + pc[:hi.shape[1]]
    order = np.argsort(key)
    count = np.bincount(key, minlength=sig.shape[1] * (high + 1))
    start = np.cumsum(count) - count
    has = count.reshape(-1, high + 1) > 0
    wmin = np.argmax(has, axis=1).astype(np.uint8)     # least weight of s
    wbits = (has << np.arange(high + 1, dtype=np.uint16)).sum(
        axis=1, dtype=np.uint16)                        # bit w: s has weight w
    want_t = t is not None and 0 <= t <= f.n
    tau = None
    kept = []                       # pairs s << low | l that reach tau or t
    rows = max(1, _BLOCK >> low)
    for r0 in range(0, sig.shape[1], rows):
        block = sig[:, r0:r0 + rows, None]
        r1 = r0 + block.shape[1]
        ok = (lo[0] | block[0]) == full[0]
        for k in range(1, full.size):
            ok &= (lo[k] | block[k]) == full[k]
        least = int(np.min(wmin[r0:r1, None] + pc, where=ok, initial=_UNSAT))
        if least == _UNSAT:
            continue
        tau = least if tau is None else min(tau, least)
        # bit w of target[l]: a high row of weight w brings l to tau or t;
        # a right shift never widens, so any dtype numpy picks holds it
        target = np.uint32((1 << tau) | (1 << t if want_t else 0)) >> pc
        ok &= (wbits[r0:r1, None] & target.astype(np.uint16)) != 0
        kept.append(np.flatnonzero(ok) + (r0 << low))
    if tau is None:
        empty = np.zeros(0, dtype=np.int64)
        return None, empty, empty
    kept = np.concatenate(kept)
    s, l = kept >> low, kept & ((1 << low) - 1)

    def at(weight: int) -> np.ndarray:
        """Masks of the given weight: each kept pair with every high row of
        its signature and of the weight that the low entry leaves."""
        w = weight - pc[l].astype(np.int64)
        fits = (w >= 0) & (w <= high)
        k = s[fits] * (high + 1) + w[fits]
        c = count[k]
        i = np.repeat(start[k] - np.cumsum(c) + c, c) + np.arange(c.sum())
        return order[i] << low | np.repeat(l[fits], c)

    return tau, at(tau), at(t) if want_t else kept[:0]


def _tuples(masks: np.ndarray, n: int) -> tuple[tuple[int, ...], ...]:
    """Sorted variable tuples of assignment masks that share one weight:
    the masks in descending bit-reversed order (the module docstring gives
    the argument), each joined from the tuples of its three bytes."""
    masks = _reverse(np.sort(_reverse(masks, n))[::-1], n)
    return tuple(mask_tuples(masks.tolist(), n))


def _reverse(masks: np.ndarray, n: int) -> np.ndarray:
    """The masks with their n low bits in reverse order."""
    rev = (_REV8[masks & 0xFF] << 16 | _REV8[masks >> 8 & 0xFF] << 8
           | _REV8[masks >> 16])
    return rev >> (MAX_ORACLE_VARS - n)


@dataclass
class OracleReport:
    """Exact answers for one formula: transversal number, the set of
    minimum-size transversals, and (optionally) the weight-t solution set."""

    tau: int | None
    gamma: tuple[tuple[int, ...], ...]
    weight_t_solutions: tuple[tuple[int, ...], ...] = ()

    @property
    def gamma_count(self) -> int:
        return len(self.gamma)


def _require_small(f: Formula) -> None:
    if f.n > MAX_ORACLE_VARS:
        raise OracleRefused(f"n={f.n} exceeds oracle limit {MAX_ORACLE_VARS}")


def brute_force(f: Formula, t: int | None = None) -> OracleReport:
    """Scan all 2^n assignments: exact transversal number, all minimum-size
    transversals, and the full weight-t satisfying set when t is given."""
    _require_small(f)
    tau, at_tau, at_t = _scan(f, False, t)
    if tau is None:
        return OracleReport(None, (), ())
    gamma = _tuples(at_tau, f.n)
    sols = () if t is None else gamma if t == tau else _tuples(at_t, f.n)
    return OracleReport(tau, gamma, sols)


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
