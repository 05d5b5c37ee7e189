import hashlib
import random
import tracemalloc

import numpy as np
import pytest

import naenum.oracle as oracle
from naenum import (Formula, OracleRefused, brute_force, maj,
                    nae_solutions_direct, negation_closure,
                    random_negation_closed, verify_enumeration)

# sha256 of repr(report), recorded with the chunked per-clause scan that the
# split-half kernel replaced; pins the benchmark's n = 24 instance without a
# reference run.  Re-recorded when the report lost its ``min_sat_weight``
# field, again when it lost ``n`` and ``t``, copies of the arguments, and
# again when ``gamma_count``, always ``len(gamma)``, became a property: the
# old digests are those of these reprs with the fields put back.
GOLDEN_REPORTS = [
    pytest.param(lambda: brute_force(maj(24, 3), 12),
                 "0f8cc36591dea3df5871bc39733c71b2eb5bcb30ed8319745db427c5bdfcd23a",
                 id="maj24-t12"),
    pytest.param(lambda: brute_force(negation_closure(maj(16, 3)), 8),
                 "7feb6cdd13136d819c860a1613c20a103b8ff9c0731c2f23c4b0c1f521645f47",
                 id="closure-maj16-t8"),
]


def test_maj4_report():
    rep = brute_force(negation_closure(maj(4, 3)), t=2)
    assert rep.tau == 2 and rep.gamma_count == 6
    assert rep.weight_t_solutions == rep.gamma
    assert (1, 2) in rep.gamma


def test_empty_formula():
    rep = brute_force(Formula.of(3, []))
    assert rep.tau == 0
    assert rep.gamma == ((),)


def test_maj8_report():
    rep = brute_force(negation_closure(maj(8, 3)))
    assert rep.tau == 4 and rep.gamma_count == 36


def test_unsatisfiable():
    f = Formula.of(1, [(1,), (-1,)])
    rep = brute_force(f)
    assert rep.tau is None and rep.gamma == ()


def test_oracle_refuses_large_n():
    with pytest.raises(OracleRefused):
        brute_force(Formula.of(25, []))


def test_nae_solutions_direct_examples():
    f = maj(4, 3)
    assert len(nae_solutions_direct(f, 2)) == 6
    assert nae_solutions_direct(f, 4) == ()
    assert nae_solutions_direct(Formula.of(1, []), 1) == ((1,),)


@pytest.mark.parametrize("seed", range(0, 500, 1))
def test_nae_direct_equals_closure_sat(seed):
    from math import comb

    n = 4 + seed % 9  # up to 12
    f = random_negation_closed(n, min(2 + seed % 5, comb(n, 3)), seed=seed)
    t = seed % (n + 1)
    direct = nae_solutions_direct(f, t)
    closed = brute_force(negation_closure(f), t).weight_t_solutions
    assert direct == closed


def test_verify_enumeration_pass_and_fault_injection():
    f = negation_closure(maj(4, 3))
    good = list(brute_force(f, t=2).weight_t_solutions)
    assert verify_enumeration(f, 2, good).passed

    dup = verify_enumeration(f, 2, good + [good[0]])
    assert not dup.passed and dup.first_mismatch().startswith("duplicate")

    missing = verify_enumeration(f, 2, good[1:])
    assert not missing.passed and missing.first_mismatch().startswith("missing")

    extra = verify_enumeration(f, 2, good + [(1, 2, 3)])
    assert not extra.passed and extra.unexpected
    assert extra.first_mismatch() == "unexpected: (1, 2, 3)"


@pytest.mark.parametrize("run, digest", GOLDEN_REPORTS)
def test_golden_report_digests(run, digest):
    assert hashlib.sha256(repr(run()).encode()).hexdigest() == digest


def test_nae_cross_check_reports_nae_check_failure(monkeypatch):
    f = maj(4, 3)
    assert oracle.nae_oracle_cross_check(f, 2)
    monkeypatch.setattr(oracle, "nae_check", lambda g, s: s != (1, 2))
    assert oracle.nae_oracle_cross_check(f, 2) is False


@pytest.mark.parametrize("n", range(1, 25))
def test_tuples_match_sorted_sets(n):
    # masks of one weight, drawn at random plus the weight's least and
    # greatest mask, come out as the sorted tuples of their set bits
    rng = random.Random(n)
    for w in {0, 1, n // 2, n - 1, n}:
        sets = {tuple(sorted(rng.sample(range(1, n + 1), w))) for _ in range(300)}
        sets |= {tuple(range(1, w + 1)), tuple(range(n - w + 1, n + 1))}
        masks = np.array([sum(1 << (v - 1) for v in s) for s in sets],
                         dtype=np.int64)
        got = oracle._tuples(masks, n)
        assert got == tuple(sorted(sets)), (n, w)
        assert all(type(v) is int for s in got for v in s)
    assert oracle._tuples(np.zeros(0, dtype=np.int64), n) == ()


def test_brute_force_maj24_peak_memory():
    # 22,031,048 B is the peak of the scan that tested every pair of half
    # assignments (Python 3.11, numpy 2.4); the distinct-signature scan
    # peaked at 12.7 MB there, about half of it the report's 46,656 tuples
    f = maj(24, 3)
    brute_force(maj(8, 3), 4)
    tracemalloc.start()
    try:
        rep = brute_force(f, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.tau == 12 and rep.gamma_count == 6 ** 6
    assert peak <= 22_031_048, peak
