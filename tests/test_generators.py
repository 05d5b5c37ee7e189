import pytest

from naenum import (Formula, brute_force, is_negation_closed, ksat_to_naesat,
                    maj, nae_solutions_direct, negation_closure,
                    random_negation_closed)
from oracles import satisfies


def test_maj_4_3_clauses():
    f = maj(4, 3)
    assert f.clauses == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def test_maj_8_3_two_blocks():
    f = maj(8, 3)
    assert len(f.clauses) == 8
    blocks = {frozenset(range(1, 5)), frozenset(range(5, 9))}
    for c in f.clauses:
        assert any(set(c) <= b for b in blocks)


def test_maj_divisibility():
    with pytest.raises(ValueError):
        maj(6, 3)


@pytest.mark.parametrize("n, k", [(4, 1), (4, 0), (-4, 3)])
def test_maj_refuses_small_k_and_negative_n(n, k):
    with pytest.raises(ValueError, match="k >= 2 and n >= 0"):
        maj(n, k)


@pytest.mark.parametrize("n", [4, 8])
def test_maj_satisfying_assignments_majority_per_block(n):
    f = maj(n, 3)
    for mask in range(1 << n):
        ones = {v for v in range(1, n + 1) if mask >> (v - 1) & 1}
        if satisfies(f, ones):
            for lo in range(1, n, 4):
                assert len(ones & set(range(lo, lo + 4))) >= 2


@pytest.mark.parametrize("n,count", [(4, 6), (8, 36), (12, 216)])
def test_maj_tau_and_gamma(n, count):
    rep = brute_force(negation_closure(maj(n, 3)))
    assert rep.tau == n // 2
    assert rep.gamma_count == count


def test_random_closed_reproducible_and_closed():
    a = random_negation_closed(6, 4, seed=1)
    b = random_negation_closed(6, 4, seed=1)
    assert a == b
    assert is_negation_closed(a)
    assert len(a.clauses) == 8  # closure doubles distinct monotone triples


def test_random_closed_seed_sensitivity():
    assert random_negation_closed(8, 5, seed=1) != random_negation_closed(8, 5, seed=2)


def test_random_closed_refusals():
    with pytest.raises(ValueError, match="n >= 3"):
        random_negation_closed(2, 1, seed=0)
    with pytest.raises(ValueError, match="m=5 exceeds the 4 available triples"):
        random_negation_closed(4, 5, seed=0)


def test_reduction_example():
    f = Formula.of(2, [(1, 2)])
    assert ksat_to_naesat(f) == Formula.of(3, [(1, 2, 3)])
    assert ksat_to_naesat(Formula.of(2, [])) == Formula.of(2, [])


@pytest.mark.parametrize("seed", range(8))
def test_reduction_preserves_satisfiability(seed):
    f = random_negation_closed(5, 3, seed=seed)  # arbitrary small 3-CNF
    g = ksat_to_naesat(f)
    sat = brute_force(f).tau is not None
    nae_sat = brute_force(negation_closure(g)).tau is not None
    assert sat == nae_sat


def test_reduction_nae_solutions_pair_up_and_project():
    f = Formula.of(3, [(1, 2), (-1, 3), (-2, -3)])
    g = ksat_to_naesat(f)
    z = g.n
    sols = set()
    for t in range(g.n + 1):
        sols.update(nae_solutions_direct(g, t))
    # complement pairs
    full = set(range(1, g.n + 1))
    assert all(tuple(sorted(full - set(s))) in sols for s in sols)
    # z=0 members project to satisfying assignments of the input
    for s in sols:
        if z not in s:
            assert satisfies(f, set(s))
