import pytest
from hypothesis import given, settings, strategies as st

from naenum import attempt_reset, greedy_maximal
from naenum.errors import InternalInvariantError
from naenum.matching import check_disjoint, maximum_family, var_mask
from oracles import is_maximal
import reference_profile


def _index(clauses):
    """Clauses in canonical order, each with its variable mask, as
    ``monotone_index`` pairs them."""
    return tuple((c, var_mask(c)) for c in clauses)


def test_greedy_examples():
    assert greedy_maximal(_index([(1, 2, 3)])) == ((1, 2, 3),)
    assert greedy_maximal(_index([(1, 2, 3), (1, 4, 5)])) == ((1, 2, 3),)
    assert greedy_maximal(_index([(1, 2, 3), (4, 5, 6)])) == ((1, 2, 3), (4, 5, 6))
    # the keep seeds the collection, and the result is sorted
    assert greedy_maximal(_index([(1, 2, 3)]), keep=[(4, 5, 6)]) == ((1, 2, 3), (4, 5, 6))


@given(st.lists(st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16))
                .map(lambda t: tuple(sorted(set(t)))).filter(lambda c: len(c) == 3),
                max_size=12))
@settings(max_examples=80, deadline=None)
def test_greedy_is_maximal(cands):
    coll = greedy_maximal(_index(sorted(set(cands))))
    assert is_maximal(coll, cands)
    used = set()
    for c in coll:
        assert not used & set(c)
        used.update(c)


def test_maximum_family_examples():
    # greedy keeps (1, 2, 3) alone; the maximum family is the other two
    assert maximum_family(_index([(1, 2, 3), (1, 4, 5), (2, 6, 7)]), 3) == ((1, 4, 5), (2, 6, 7))
    # pairwise meeting clauses: the first one in canonical order
    assert maximum_family(_index([(1, 2, 3), (1, 4, 5), (2, 4, 6)]), 3) == ((1, 2, 3),)
    # the search stops at the bound, here at greedy's first family
    assert maximum_family(_index([(1, 2, 3), (1, 4, 5), (2, 6, 7)]), 1) == ((1, 2, 3),)
    assert maximum_family((), 0) == ()


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
                .map(lambda t: tuple(sorted(set(t)))).filter(lambda c: len(c) == 3),
                max_size=9, unique=True).map(sorted))
@settings(max_examples=150, deadline=None)
def test_maximum_family_matches_exhaustive_search(pool):
    want = tuple(reference_profile.maximum_family(pool, "base").members)
    assert maximum_family(_index(pool), len(pool)) == want
    # the size of a maximum family is a valid bound, and changes nothing
    assert maximum_family(_index(pool), len(want)) == want


def test_reset_grows_collection():
    coll = greedy_maximal(_index([(1, 2, 3)]))
    grown = attempt_reset(coll, [(1, 2, 3)], [(1, 4, 5), (2, 6, 7)], ())
    assert grown == ((1, 4, 5), (2, 6, 7))
    assert coll == ((1, 2, 3),)          # the old collection is unchanged


def test_reset_noop_cases():
    coll = greedy_maximal(_index([(1, 2, 3)]))
    assert attempt_reset(coll, [], [], ()) is None
    assert attempt_reset(coll, [(1, 2, 3)], [(4, 5, 6)], ()) is None


def test_reset_rejects_overlapping_witness():
    coll = greedy_maximal(_index([(1, 2, 3)]))
    with pytest.raises(InternalInvariantError):
        attempt_reset(coll, [], [(3, 4, 5), (5, 6, 7)], ())


def test_reset_rejects_removing_a_non_member():
    coll = greedy_maximal(_index([(1, 2, 3)]))
    with pytest.raises(InternalInvariantError, match="non-member"):
        attempt_reset(coll, [(4, 5, 6)], [(7, 8, 9), (10, 11, 12)], ())


def test_reset_extends_greedily():
    pool = [(1, 2, 3), (1, 4, 5), (2, 6, 7), (8, 9, 10)]
    coll = greedy_maximal(_index(pool))
    assert coll == ((1, 2, 3), (8, 9, 10))
    grown = attempt_reset(coll, [(1, 2, 3)], [(1, 4, 5), (2, 6, 7)], _index(pool))
    assert grown == ((1, 4, 5), (2, 6, 7), (8, 9, 10))
    assert is_maximal(grown, pool)


def test_collection_validates_disjointness():
    assert check_disjoint([(1, 2, 3), (4, 5, 6)]) == ((1, 2, 3), (4, 5, 6))
    with pytest.raises(InternalInvariantError):
        check_disjoint([(1, 2, 3), (3, 4, 5)])
