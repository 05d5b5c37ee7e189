import random

import pytest
from hypothesis import given, settings, strategies as st

from naenum import (DimacsError, Formula, TautologyError, canonical_clause,
                    is_negation_closed, nae_check, negation_closure,
                    parse_dimacs)
from naenum.cnf import mask_tuples
from oracles import satisfies, simplify


# ---------------------------------------------------------------- strategies

@st.composite
def formulas(draw, max_n=9, max_m=8, max_width=3):
    n = draw(st.integers(3, max_n))
    m = draw(st.integers(0, max_m))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(1, max_width))
        vs = draw(st.permutations(range(1, n + 1)))[:width]
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(tuple(v if s else -v for v, s in zip(vs, signs)))
    return Formula.of(n, clauses)


# ---------------------------------------------------------------- parsing

def test_parse_basic():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    assert f == Formula.of(3, [(1, 2, 3)])


def test_parse_negative_literal():
    f = parse_dimacs("p cnf 2 1\n1 -2 0")
    assert f == Formula.of(2, [(1, -2)])


def test_parse_out_of_range():
    with pytest.raises(DimacsError) as ei:
        parse_dimacs("p cnf 2 1\n3 0")
    assert ei.value.line == 2


def test_parse_comments_and_multiline_clauses():
    f = parse_dimacs("c hello\np cnf 4 2\n1 2\n3 0\nc mid\n-4 1 0\n")
    assert f == Formula.of(4, [(1, 2, 3), (1, -4)])


def test_parse_unterminated_clause():
    with pytest.raises(DimacsError, match="unterminated"):
        parse_dimacs("p cnf 3 1\n1 2 3")


def test_parse_malformed_header():
    with pytest.raises(DimacsError, match="header"):
        parse_dimacs("p dnf 3 1\n1 0")
    with pytest.raises(DimacsError, match="header"):
        parse_dimacs("1 2 0")


def test_parse_bytes_and_percent_terminator():
    # SATLIB files end with "%" and a stray "0"; nothing after "%" is read
    f = parse_dimacs(b"p cnf 3 1\n1 2 -3 0\n%\n0\n")
    assert f == Formula.of(3, [(1, 2, -3)])


@pytest.mark.parametrize("text, message, line", [
    ("p cnf 2 0\np cnf 2 0\n", "duplicate header", 2),
    ("p cnf x 1\n1 0\n", "malformed header", 1),
    ("p cnf 2 -1\n", "malformed header", 1),
    ("p cnf 2 1\n1 a 0\n", "bad token 'a'", 2),
    ("c no header\n", "missing header", 1),
])
def test_parse_refusals_name_the_line(text, message, line):
    with pytest.raises(DimacsError, match=message) as ei:
        parse_dimacs(text)
    assert ei.value.line == line


@pytest.mark.parametrize("text", [
    b"p cnf 3 1\n1 \x0c2 x 0\n", b"p cnf 3 1\n1 \x0b2 x 0\n",
    b"p cnf 3 1\n1 \x1c2 \x1e x 0\n", "p cnf 3 1\r\n1 \x0c2 x 0\r\n",
    "p cnf 3 1\r1 \x1d2 x 0\r",
])
def test_parse_counts_lines_at_line_ends_only(text):
    # form feeds, vertical tabs and \x1c-\x1e separate tokens, not lines
    with pytest.raises(DimacsError, match="bad token 'x'") as ei:
        parse_dimacs(text)
    assert ei.value.line == 2


def test_parse_tautology_rejected():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 3 1\n1 -1 2 0")


def test_parse_wide_clause_accepted():
    f = parse_dimacs("p cnf 5 1\n1 2 3 4 0")
    assert f.max_width == 4


def test_canonical_clause_dedupes_and_sorts():
    assert canonical_clause([3, 1, 3]) == (1, 3)
    with pytest.raises(TautologyError):
        canonical_clause([1, -1])


def test_dimacs_roundtrip():
    f = Formula.of(5, [(1, -3), (2, 4, 5), (-1, -2, -4)])
    assert parse_dimacs(f.to_dimacs()) == f


# ---------------------------------------------------------------- closure

def test_closure_examples():
    f = Formula.of(3, [(1, 2, 3)])
    assert negation_closure(f) == Formula.of(3, [(1, 2, 3), (-1, -2, -3)])
    g = Formula.of(2, [(1, -2)])
    assert negation_closure(g) == Formula.of(2, [(1, -2), (-1, 2)])


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_closure_idempotent(f):
    once = negation_closure(f)
    assert negation_closure(once) == once
    assert is_negation_closed(once)


def _closed_outcome(check, f):
    try:
        return check(f)
    except (TautologyError, ValueError) as exc:
        return type(exc)


def _closed_by_rebuild(f):
    return negation_closure(f) == f


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_is_negation_closed_matches_rebuild(f):
    for g in (f, negation_closure(f)):
        assert is_negation_closed(g) == _closed_by_rebuild(g)


def test_is_negation_closed_matches_rebuild_on_corpus(corpus500):
    for f, _ in corpus500:
        assert is_negation_closed(f) and _closed_by_rebuild(f)
        g = Formula(f.n, f.clauses[1:])
        assert is_negation_closed(g) == _closed_by_rebuild(g)


@pytest.mark.parametrize("f", [
    Formula(3, ((1, 2, 3), (-1, -2, -3))),
    Formula(3, ((-1, -2, -3), (1, 2, 3))),              # clause order
    Formula(3, ((1, 2, 3), (1, 2, 3), (-1, -2, -3))),   # repeated clause
    Formula(3, ((3, 2, 1), (-3, -2, -1))),              # literal order
    Formula(2, ((1, 1), (-1, -1))),                     # repeated literal
    Formula(2, ((1, -2), (-1, 2))),
    Formula(2, ((-1, 2), (1, -2))),
    Formula(2, ((1, 2),)),                              # negation missing
    Formula(2, ((),)),
    Formula(2, ((1, -1),)),                             # tautology
    Formula(2, ((1, 3), (-1, -3))),                     # out of range
    Formula(2, ((0, 1), (0, -1))),
])
def test_is_negation_closed_matches_rebuild_on_raw_formulas(f):
    assert _closed_outcome(is_negation_closed, f) == \
        _closed_outcome(_closed_by_rebuild, f)


@given(formulas(max_n=7, max_m=5))
@settings(max_examples=40, deadline=None)
def test_nae_equals_closure_sat(f):
    closed = negation_closure(f)
    for mask in range(1 << f.n):
        ones = {v for v in range(1, f.n + 1) if mask >> (v - 1) & 1}
        assert nae_check(f, ones) == satisfies(closed, ones)


# ---------------------------------------------------------------- simplify

def test_simplify_examples():
    f = Formula.of(3, [(1, 2, 3)])
    assert simplify(f, {1}).clauses == ()
    g = Formula.of(2, [(-1, 2)])
    assert simplify(g, {1}).clauses == ((2,),)
    h = Formula.of(1, [(-1,)])
    assert simplify(h, {1}).clauses == ((),)


def test_simplify_keeps_universe():
    f = Formula.of(5, [(1, 2, 3)])
    assert simplify(f, {1}).n == 5


@given(formulas(), st.data())
@settings(max_examples=60, deadline=None)
def test_simplify_composes(f, data):
    all_vars = list(range(1, f.n + 1))
    a = set(data.draw(st.lists(st.sampled_from(all_vars), unique=True)))
    rest = [v for v in all_vars if v not in a]
    b = set(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else set()
    assert simplify(simplify(f, a), b) == simplify(f, a | b)


# ---------------------------------------------------------------- NAE check

def test_nae_check_examples():
    f = Formula.of(3, [(1, 2, 3)])
    assert nae_check(f, {1})
    assert not nae_check(f, {1, 2, 3})
    assert nae_check(Formula.of(3, []), {2})


@pytest.mark.parametrize("n", [1, 7, 8, 9, 23, 24, 25, 31, 40, 70])
def test_mask_tuples_match_sorted_sets(n):
    # bit v - 1 + shift stands for variable v; up to 24 variables the
    # tuples join three byte tables, past that one table per byte
    rng = random.Random(n)
    sets = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            for _ in range(200)] + [(), tuple(range(1, n + 1))]
    for shift in (0, 1, 5):
        masks = [sum(1 << v - 1 + shift for v in s) for s in sets]
        assert mask_tuples(masks, n, shift) == sets, (n, shift)
