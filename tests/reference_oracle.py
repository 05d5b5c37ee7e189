"""Frozen reference copy of the chunked per-clause brute-force scan.

``brute_force`` and ``nae_solutions_direct`` below are the implementations
that the split-half bitset kernel in ``naenum.oracle`` replaced, kept verbatim
(with the helpers they called) so the differential tests can compare the two
reports field by field.  Do not edit it to follow the package, except
where it builds the package's ``OracleReport``: those two calls follow its
fields.
"""

from __future__ import annotations

import numpy as np

from naenum.cnf import Formula
from naenum.errors import OracleRefused
from naenum.oracle import OracleReport

MAX_ORACLE_VARS = 24
_CHUNK = 1 << 20

_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _weights(a: np.ndarray) -> np.ndarray:
    return _POPCOUNT16[a & 0xFFFF] + _POPCOUNT16[a >> 16]


def _masks(f: Formula) -> tuple[np.ndarray, np.ndarray]:
    pos = np.zeros(len(f.clauses), dtype=np.uint32)
    neg = np.zeros(len(f.clauses), dtype=np.uint32)
    for i, c in enumerate(f.clauses):
        for l in c:
            if l > 0:
                pos[i] |= np.uint32(1 << (l - 1))
            else:
                neg[i] |= np.uint32(1 << (-l - 1))
    return pos, neg


def _mask_to_vars(mask: int) -> tuple[int, ...]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _require_small(f: Formula) -> None:
    if f.n > MAX_ORACLE_VARS:
        raise OracleRefused(f"n={f.n} exceeds oracle limit {MAX_ORACLE_VARS}")


def _scan(f: Formula, predicate) -> tuple[np.ndarray, np.ndarray]:
    """Return (masks, weights) of assignments where predicate holds.

    predicate(assigns, pos, neg) -> bool array; evaluated per chunk.
    """
    pos, neg = _masks(f)
    hits = []
    for lo in range(0, 1 << f.n, _CHUNK):
        hi = min(lo + _CHUNK, 1 << f.n)
        a = np.arange(lo, hi, dtype=np.uint32)
        ok = predicate(a, pos, neg)
        hits.append(a[ok])
    masks = np.concatenate(hits) if hits else np.zeros(0, dtype=np.uint32)
    return masks, _weights(masks)


def _sat_pred(a: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    ok = np.ones(a.shape, dtype=bool)
    for p, ng in zip(pos, neg):
        ok &= ((a & p) != 0) | ((~a & ng) != 0)
    return ok


def _nae_pred(a: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    ok = np.ones(a.shape, dtype=bool)
    for p, ng in zip(pos, neg):
        some_true = ((a & p) != 0) | ((~a & ng) != 0)
        some_false = ((~a & p) != 0) | ((a & ng) != 0)
        ok &= some_true & some_false
    return ok


def brute_force(f: Formula, t: int | None = None) -> OracleReport:
    """Scan all 2^n assignments: exact transversal number, all minimum-size
    transversals, and the full weight-t satisfying set when t is given."""
    _require_small(f)
    masks, weights = _scan(f, _sat_pred)
    if masks.size == 0:
        return OracleReport(None, (), ())
    tau = int(weights.min())
    gamma = tuple(sorted(_mask_to_vars(int(m)) for m in masks[weights == tau]))
    sols = ()
    if t is not None:
        sols = tuple(sorted(_mask_to_vars(int(m)) for m in masks[weights == t]))
    return OracleReport(tau, gamma, sols)


def nae_solutions_direct(f: Formula, t: int) -> tuple[tuple[int, ...], ...]:
    """All weight-t assignments that satisfy and falsify a literal in every
    clause of the (pre-closure) formula."""
    _require_small(f)
    masks, weights = _scan(f, _nae_pred)
    return tuple(sorted(_mask_to_vars(int(m)) for m in masks[weights == t]))
