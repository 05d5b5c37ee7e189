"""Instance factories: block-majority extremal formulas, random negation-closed
corpora, and the clause-padding reduction from k-SAT to (k+1)-NAE-SAT."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .cnf import Formula, negation_closure


@dataclass(frozen=True)
class GenSpec:
    """Record of how an instance was generated (written into DIMACS comments)."""

    family: str
    n: int
    k: int = 3
    m: int = 0
    seed: int = 0

    def comment(self) -> str:
        return (f"naenum gen family={self.family} n={self.n} k={self.k} "
                f"m={self.m} seed={self.seed}")


def maj(n: int, k: int = 3) -> Formula:
    """Block-majority formula: split n variables into blocks of 2k-2 and add
    every positive width-k clause inside each block.  Every satisfying
    assignment sets at least k-1 ones per block."""
    if k < 2 or n < 0:
        raise ValueError(f"maj needs k >= 2 and n >= 0, got n={n}, k={k}")
    block = 2 * k - 2
    if n % block != 0:
        raise ValueError(f"n={n} not divisible by block size {block}")
    clauses = []
    for b in range(n // block):
        lo = b * block + 1
        clauses.extend(combinations(range(lo, lo + block), k))
    return Formula.of(n, clauses)


def random_negation_closed(n: int, m: int, seed: int) -> Formula:
    """m distinct random monotone width-3 clauses over n variables, closed
    under literal-wise negation.  Reproducible per seed."""
    if n < 3:
        raise ValueError("need n >= 3")
    triples = list(combinations(range(1, n + 1), 3))
    if m > len(triples):
        raise ValueError(f"m={m} exceeds the {len(triples)} available triples")
    rng = random.Random(seed)
    return negation_closure(Formula.of(n, rng.sample(triples, m)))


def ksat_to_naesat(f: Formula) -> Formula:
    """Pad every clause with one fresh positive variable z = n+1.  The input is
    satisfiable iff the output has a not-all-equal solution (set z = 0)."""
    if not f.clauses:
        return Formula.of(f.n, ())
    z = f.n + 1
    return Formula.of(z, [c + (z,) for c in f.clauses])
