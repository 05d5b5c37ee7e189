"""Deterministic instance corpora shared by the test modules."""

from __future__ import annotations

from naenum import (BudgetExceeded, Formula, brute_force,
                    enumerate_all_orderings, random_negation_closed)


def satisfiable_corpus(count: int, n_lo: int = 6, n_hi: int = 14,
                       seed0: int = 1000):
    """``count`` random negation-closed instances with their oracle reports,
    spread over n in [n_lo, n_hi].  Unsatisfiable draws are skipped."""
    out = []
    s = 0
    while len(out) < count:
        n = n_lo + s % (n_hi - n_lo + 1)
        m = 3 + (s * 7) % n
        f = random_negation_closed(n, m, seed=seed0 + s)
        s += 1
        rep = brute_force(f)
        if rep.tau is None:
            continue
        out.append((f, rep))
    return out


def exhaustive_corpus(count: int, budget: int = 10 ** 6, seed0: int = 5000):
    """Instances whose full joint-ordering space fits the budget, each with
    its exhaustive-orderings report."""
    out = []
    s = 0
    while len(out) < count:
        n = 4 + s % 4
        m = 2 + s % 4
        f = random_negation_closed(n, m, seed=seed0 + s)
        s += 1
        rep = brute_force(f)
        if rep.tau is None:
            continue
        try:
            report = enumerate_all_orderings(f, rep.tau, budget=budget)
        except BudgetExceeded:
            continue
        out.append((f, rep, report))
    return out


# hand-built instances that provably trigger each reachable reset trigger
def collision_reset_instance() -> Formula:
    """Two once-marked clauses land on both X variables of base level 0 with
    disjoint tails; the profile build swaps them in for the base clause."""
    from naenum import negation_closure

    return negation_closure(Formula.of(8, [(1, 2, 3), (2, 4, 5), (3, 6, 7)]))


def structure_reset_instance() -> Formula:
    """A twice-marked clause pairs level 0's spare X variable with a tail
    variable of level 1's onemark clause, yielding a 1-for-2 base swap."""
    from naenum import negation_closure

    return negation_closure(Formula.of(
        12, [(1, 8, 9), (2, 3, 8), (4, 10, 11), (5, 6, 10), (5, 7, 9)]))


def heavy_overflow_instance() -> Formula:
    """At the depth-t0 path (1, 4) the twice-marked pool F2R holds the
    disjoint pair (3, 8, 12), (6, 9, 11), which a greedy twomark collection,
    [(3, 7, 11)], misses.  Its tau = 4 ends every shoot in the onemark or
    twomark stage, so the search never meets that pair as heavy clauses."""
    from naenum import negation_closure

    return negation_closure(Formula.of(13, [
        (1, 2, 3), (4, 5, 6), (2, 7, 8), (5, 9, 10),
        (3, 7, 11), (3, 8, 12), (6, 9, 11)]))


def heavy_reset_instance() -> Formula:
    """At t = 5 (tau), a free-stage shoot meets more disjoint heavy clauses
    outside the twomark pool than the heavy budget allows; they grow the
    base collection from 2 to 3 clauses in one base reset."""
    return random_negation_closed(13, 17, seed=258832577)


def twomark_reset_instance() -> Formula:
    """``heavy_overflow_instance()`` plus clauses that lift tau to 6 and are
    all hit on the shoot (1, 4, 7, 10).  Below it the free stage meets the
    disjoint pool pair (3, 8, 12), (6, 9, 11) as heavy clauses: a twomark
    collection of one clause at the depth-t0 path (1, 4) would overflow its
    heavy budget there, and the maximum one, which holds the pair, does not."""
    from naenum import negation_closure

    return negation_closure(Formula.of(14, [
        (1, 2, 3), (4, 5, 6), (2, 7, 8), (5, 9, 10),
        (3, 7, 11), (3, 8, 12), (6, 9, 11),
        (1, 5), (1, 13), (4, 5), (5, 7), (5, 10, 11), (7, 14)]))


def disjoint_union(*fs: Formula) -> Formula:
    """The formulas side by side: each one's variables are shifted past those
    of the formulas before it.  Its tau is the sum of theirs, and its
    weight-tau solutions are the unions of one weight-tau solution per side."""
    n, clauses = 0, []
    for f in fs:
        clauses += [[l + n if l > 0 else l - n for l in c] for c in f.clauses]
        n += f.n
    return Formula.of(n, clauses)


def relabel(f: Formula, perm) -> Formula:
    """``f`` with variable v renamed ``perm[v - 1]`` and every sign kept;
    ``perm`` is a permutation of 1..n."""
    return Formula.of(f.n, [[perm[abs(l) - 1] * (1 if l > 0 else -1) for l in c]
                            for c in f.clauses])
