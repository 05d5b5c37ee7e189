"""Differential tests: the split-half bitset oracle against the frozen chunked
per-clause scan in ``reference_oracle.py``, field by field."""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import naenum.oracle as oracle
from naenum import (Formula, OracleReport, brute_force, maj,
                    nae_solutions_direct, negation_closure)
import reference_oracle


def _assert_python_ints(rep):
    for name in ("tau", "gamma_count"):
        value = getattr(rep, name)
        assert value is None or type(value) is int, name
    for sols in (rep.gamma, rep.weight_t_solutions):
        assert type(sols) is tuple
        assert all(type(s) is tuple and all(type(v) is int for v in s)
                   for s in sols)


def _assert_same(f, t):
    got, want = brute_force(f, t), reference_oracle.brute_force(f, t)
    for fld in fields(OracleReport):
        assert getattr(got, fld.name) == getattr(want, fld.name), \
            (f, t, fld.name)
    _assert_python_ints(got)
    return got


def _check(f, t):
    rep = _assert_same(f, None)
    for u in {t, rep.tau} - {None}:
        _assert_same(f, u)
        got = nae_solutions_direct(f, u)
        assert got == reference_oracle.nae_solutions_direct(f, u), (f, u)
        assert all(type(v) is int for s in got for v in s)


def _random_formula(n, count, negative, seed, empty=False):
    """n variables, ``count`` drawn clauses of widths 1..4 (fewer after
    deduplication), each literal negative with probability ``negative``."""
    rng = random.Random(seed)
    clauses = [[]] if empty else []
    for _ in range(count if n else 0):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        clauses.append([-v if rng.random() < negative else v for v in vs])
    return Formula.of(n, clauses)


@st.composite
def formulas(draw):
    n = draw(st.integers(0, 14))
    count = draw(st.sampled_from((63, 64, 65, 130)) | st.integers(0, 2 * n))
    return _random_formula(n, count, draw(st.sampled_from((0.0, 0.1, 0.3, 0.5))),
                           draw(st.integers(0, 2 ** 32 - 1)),
                           empty=draw(st.integers(0, 9)) == 0)


@given(formulas(), st.none() | st.integers(-1, 15))
@settings(max_examples=200, deadline=None)
def test_reports_match_reference(f, t):
    _check(f, t)


def _exact_count(n, m, seed, negative):
    """An n-variable formula with exactly m distinct clauses."""
    f = _random_formula(n, m, negative, seed)
    while len(f.clauses) < m:
        seed += 1
        extra = _random_formula(n, m - len(f.clauses), negative, seed)
        f = Formula.of(n, f.clauses + extra.clauses)
    return f


@pytest.mark.parametrize("m", [0, 63, 64, 65, 129, 200])
@pytest.mark.parametrize("n", [12, 13, 15])
@pytest.mark.parametrize("negative", [0.0, 0.3])
def test_word_boundary_clause_counts(n, m, negative):
    # one to four words; at odd n the low half holds one variable more
    f = _exact_count(n, m, seed=1000 * n + m, negative=negative)
    assert len(f.clauses) == m
    _check(f, n // 2)


@pytest.mark.parametrize("n", range(0, 15))
def test_block_majority_and_empty(n):
    _check(Formula.of(n, []), n // 2)
    _check(Formula.of(n, [()]), n // 2)
    if n % 4 == 0 and n:
        _check(negation_closure(maj(n, 3)), n // 2)


def test_closure_of_maj20_matches_reference():
    f = negation_closure(maj(20, 3))
    rep = _assert_same(f, 10)
    assert rep.tau == 10 and rep.gamma_count == 6 ** 5
    assert rep.weight_t_solutions is rep.gamma


def _distinct_high_signatures(f):
    """The number of distinct clause sets that the assignments of the high
    floor(n/2) variables make some literal true in."""
    low = (f.n + 1) // 2
    sigs = set()
    for a in range(1 << (f.n - low)):
        value = {low + 1 + i: a >> i & 1 for i in range(f.n - low)}
        sigs.add(frozenset(j for j, c in enumerate(f.clauses)
                           if any(value.get(abs(l)) == (l > 0) for l in c)))
    return len(sigs)


@pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
@pytest.mark.parametrize("closed", [False, True])
def test_repeated_signatures_match_reference(n, closed):
    # from n = 8 on, block-majority halves repeat their signatures: many
    # high rows share one, with different weights, so one pair expands to
    # several rows
    f = negation_closure(maj(n, 3)) if closed else maj(n, 3)
    if n >= 8:
        assert _distinct_high_signatures(f) < 1 << (f.n - (f.n + 1) // 2)
    rep = _assert_same(f, None)
    for t in (rep.tau, rep.tau - 1, rep.tau + 1, 3):
        _assert_same(f, t)
    assert nae_solutions_direct(f, n // 2) == \
        reference_oracle.nae_solutions_direct(f, n // 2)


def _random_3cnf(n, m, seed):
    rng = random.Random(seed)
    return Formula.of(n, [[-v if rng.random() < 0.5 else v
                           for v in rng.sample(range(1, n + 1), 3)]
                          for _ in range(m)])


@pytest.mark.parametrize("n, m, seed", [(12, 16, 4), (14, 20, 4), (16, 24, 28),
                                        (16, 28, 0)])
def test_distinct_signatures_with_dense_solutions_match_reference(n, m, seed):
    # every high row has its own signature, and satisfying assignments
    # spread over many weights, so each block keeps only the pairs that
    # reach the running tau or t
    f = _random_3cnf(n, m, seed)
    assert _distinct_high_signatures(f) == 1 << (n - (n + 1) // 2)
    satisfying = reference_oracle._scan(f, reference_oracle._sat_pred)[0].size
    _check(f, n // 2)
    rep = _assert_same(f, n // 2)
    assert satisfying > 3 * (rep.gamma_count + len(rep.weight_t_solutions))


@pytest.mark.parametrize("block", [1, 1 << 8])
def test_small_blocks_match_reference(block, monkeypatch):
    # one or a few signatures per block: tau falls from block to block, and
    # pairs kept for an earlier, larger tau must not reach the report
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for seed in range(12):
        _check(_random_formula(10 + seed % 5, 12 + seed, 0.3, seed), 5)
    _check(negation_closure(maj(12, 3)), 6)
    _check(_random_3cnf(16, 28, 0), 8)
