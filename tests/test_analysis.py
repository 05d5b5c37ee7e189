import sys
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from naenum import (Formula, brute_force, enumerate_all_orderings, maj,
                    negation_closure, random_negation_closed)
from naenum import analysis
from naenum.analysis import (QSqrt6, dp_m_large, dp_m_small,
                             estimate_psi, f_large, f_small,
                             feasible_profiles, g_large, g_small,
                             global_bound_check, n_of_u0,
                             verify_appendix_claims)
from naenum.errors import ParameterError
from naenum.treesearch import DEBUG_TREE_MAX_N
from oracles import SMALL_ALT_CASE3, f_small_alt_case3


# ---------------------------------------------------------------- numbers

def _times(a: QSqrt6, b: QSqrt6) -> QSqrt6:
    """The product, which ``QSqrt6`` itself does not define; the reference
    forms below and the exponent checks multiply with it."""
    six = 6 if a.root6 and b.root6 else 1
    return QSqrt6(six * a.r * b.r, a.root6 != b.root6)


def test_qsqrt6_arithmetic():
    # the two shapes are closed under products: r*sqrt(6) * s*sqrt(6) = 6rs
    half, root = QSqrt6(Fraction(1, 2)), QSqrt6(Fraction(2, 3), True)
    assert _times(half, half) == QSqrt6(Fraction(1, 4))
    assert _times(half, root) == _times(root, half) == QSqrt6(Fraction(1, 3), True)
    assert _times(root, root) == QSqrt6(Fraction(8, 3))


def test_qsqrt6_ordering_near_sqrt6():
    root6 = QSqrt6(1, True)
    assert QSqrt6(Fraction(49, 20)) > root6 > QSqrt6(Fraction(22, 9))
    assert QSqrt6(Fraction(22, 9)) <= root6 <= QSqrt6(Fraction(49, 20))
    assert root6 <= root6 and not root6 < root6


def _root_power(e: int) -> QSqrt6:
    """(27/8)^(e/2) as the evaluator reads it off its square exponents."""
    exps = analysis._square_exponents(((analysis._ROOT_27_8, (1, 0, 0)),))
    return _lift(analysis._value(exps, e, 0))


def _lift(v) -> QSqrt6:
    return v if isinstance(v, QSqrt6) else QSqrt6(v)


def test_sqrt_27_8_square():
    v = _root_power(1)
    assert v == QSqrt6(Fraction(3, 4), True)
    assert _times(v, v) == QSqrt6(Fraction(27, 8))


def test_qsqrt6_equality_and_hash_come_from_fields():
    assert QSqrt6(Fraction(2, 4), True) == QSqrt6(Fraction(1, 2), True)
    assert len({QSqrt6(3), QSqrt6(Fraction(6, 2)), QSqrt6(3, True)}) == 2
    # zero has one form, so equal values have equal fields
    assert QSqrt6(0, True) == QSqrt6(0) and QSqrt6(0, True).as_json() == "0"
    assert QSqrt6(6) != 6


def test_qsqrt6_refuses_negative_r():
    # comparing squares would order negative values wrongly
    for root6 in (False, True):
        with pytest.raises(ParameterError, match="r >= 0, got -1/2"):
            QSqrt6(Fraction(-1, 2), root6)


def test_qsqrt6_text_and_float():
    v = QSqrt6(Fraction(3, 2))
    assert (v.as_json(), float(v)) == ("3/2", 1.5)
    v = QSqrt6(Fraction(3, 4), True)
    assert v.as_json() == "0+3/4*sqrt(6)"
    assert float(v) == 0.75 * 6 ** 0.5


@pytest.mark.parametrize("e", range(-6, 7))
def test_pow_half_consistency(e):
    v = _root_power(e)
    assert _times(v, v) == QSqrt6(Fraction(27, 8) ** e)
    assert v.r > 0 and v.root6 == (e % 2 == 1)
    assert v == R(e)


# ---------------------------------------------------------------- closed forms

def test_f_large_examples():
    assert f_large(2, 1) == 2
    assert f_large(0, 1) == Fraction(25, 8)
    assert f_large(3, 1) == Fraction(3, 2)


def test_f_large_branches_agree_at_boundary():
    for d in range(0, 12):
        w = 2 * d
        assert (Fraction(5, 2) ** (2 * d - w) * Fraction(2) ** (w - d)
                == Fraction(2) ** (3 * d - w) * Fraction(3, 2) ** (w - 2 * d))


def test_f_small_examples():
    assert f_small(1, 1, 0) == QSqrt6(Fraction(9, 4))
    assert f_small(4, 2, 0) == QSqrt6(Fraction(27, 8))
    assert f_small(6, 2, 0) == QSqrt6(Fraction(9, 4))


def test_f_small_case3_forms_agree():
    for d in range(0, 8):
        for h in range(0, d + 1):
            for w in range(d + h, 3 * d - h + 1):
                assert f_small(w, d, h) == f_small_alt_case3(w, d, h)


def test_f_small_case3_forms_have_one_square_exponent_vector():
    # the paper's two expressions of the third case have equal squares at
    # every (w, d, h), not only on a grid, so no claim compares them
    assert (analysis._square_exponents(SMALL_ALT_CASE3)
            == analysis._SMALL_EXPONENTS[2] == (1, -5, 5, -1, 5, -3, 0, 0, 0))


def test_f_rejects_negative_depth():
    # every public closed form, not only the two piecewise ceilings
    for fn in (f_large, partial(g_large, 1), partial(g_large, 2)):
        with pytest.raises(ParameterError, match="d must be nonnegative"):
            fn(1, -1)
    for fn in (f_small, f_small_alt_case3,
               *(partial(g_small, i) for i in range(1, 5))):
        with pytest.raises(ParameterError, match="d must be nonnegative"):
            fn(1, -1, 0)
        with pytest.raises(ParameterError, match="h must be nonnegative"):
            fn(1, 1, -1)


def test_closed_forms_reject_a_bad_index():
    for i in (0, 3):
        with pytest.raises(ParameterError, match="g_large needs i in 1..2"):
            g_large(i, 1, 1)
    for i in (0, 5):
        with pytest.raises(ParameterError, match="g_small needs i in 1..4"):
            g_small(i, 1, 1, 0)


# The closed forms restated independently of their one definition in
# ``analysis``: a wrong exponent there moves the public values and the claim
# kernel together, and only a second statement catches it.
P = Fraction


def R(e: int) -> QSqrt6:
    """(27/8)^(e/2), with sqrt(27/8) = 3*sqrt(6)/4."""
    k, odd = divmod(e, 2)
    return _times(QSqrt6(P(27, 8) ** k), QSqrt6(P(3, 4) if odd else 1, bool(odd)))


# G1, G2 of the two-case ceiling
LARGE_LITERALS = (
    lambda w, d: P(5, 2) ** (2 * d - w) * P(2) ** (w - d),
    lambda w, d: P(2) ** (3 * d - w) * P(3, 2) ** (w - 2 * d),
)
# G1..G4 of the four-case ceiling, then the alternate form of the third case
SMALL_LITERALS = (
    lambda w, d, h: QSqrt6(P(9, 4) ** d),
    lambda w, d, h: QSqrt6(P(9, 4) ** (2 * d - w) * P(2) ** (w - d)),
    lambda w, d, h: _times(QSqrt6(P(9, 4) ** (2 * d - w) * P(2) ** h), R(w - d - h)),
    lambda w, d, h: QSqrt6(P(2) ** (3 * d - w) * P(3, 2) ** (w - 2 * d)),
    lambda w, d, h: _times(QSqrt6(P(2) ** h * P(3, 2) ** (w - 2 * d)),
                           R(3 * d - w - h)),
)
GRID = [(w, d, h) for d in range(9) for w in range(-3, 17) for h in range(9)]


def _square(v) -> Fraction:
    sq = _times(_lift(v), _lift(v))
    assert not sq.root6
    return sq.r


def test_closed_forms_match_literal_formulas():
    for w, d, h in GRID:
        gl = [g_large(i, w, d) for i in (1, 2)]
        assert gl == [literal(w, d) for literal in LARGE_LITERALS], (w, d)
        assert f_large(w, d) == (gl[0] if w <= 2 * d else gl[1])
        gs = [g_small(i, w, d, h) for i in (1, 2, 3, 4)]
        assert gs + [f_small_alt_case3(w, d, h)] == [
            literal(w, d, h) for literal in SMALL_LITERALS], (w, d, h)
        case = 0 if w <= d else 1 if w <= d + h else 2 if w <= 3 * d - h else 3
        assert f_small(w, d, h) == gs[case]


def test_kernel_squares_match_public_values():
    """At every grid point the claim kernel's integer pair (P, Q) is the
    square of the literal form (which the test above equates with the public
    value), for every G_i and both F; and the kernel's integer DP rows are
    the squares of both public DP tables."""
    large = dp_m_large(16, 8)
    small = dp_m_small(16, 8, 8)
    lo = -3
    rows2 = analysis._dp_large_rows(lo, 16, 8)
    rows3 = analysis._dp_small_rows(lo, 16, 8, 8)
    for w, d, h in GRID:
        g1, g2 = analysis._squares(analysis._LARGE_EXPONENTS, w, d)
        lit1, lit2 = (_square(literal(w, d)) for literal in LARGE_LITERALS)
        assert (Fraction(*g1), Fraction(*g2)) == (lit1, lit2)
        fl = (g1, g2)[analysis._large_case(w, d)]
        assert Fraction(*fl) == (lit1 if w <= 2 * d else lit2)
        gs = analysis._squares(analysis._SMALL_EXPONENTS, w, d, h)
        lits = [_square(literal(w, d, h)) for literal in SMALL_LITERALS[:4]]
        assert [Fraction(*pair) for pair in gs] == lits, (w, d, h)
        fs = gs[analysis._small_case(w, d, h)]
        case = 0 if w <= d else 1 if w <= d + h else 2 if w <= 3 * d - h else 3
        assert Fraction(*fs) == lits[case]
        assert Fraction(rows2[d][w - lo] ** 2, 4 ** d) == large.grid[w, d] ** 2
        assert Fraction(rows3[d][w - lo][h] ** 2, 16 ** d) == small.grid[w, d, h] ** 2


# ---------------------------------------------------------------- DP tables

def test_dp_large_base_and_one_step():
    t = dp_m_large(6, 2)
    assert min(w for w, _ in t.grid) == -3
    assert t.grid[1, 1] == Fraction(5, 2)
    assert all(t.grid[w, 0] == 1 for w in range(-3, 1))
    assert all(t.grid[w, 0] == 0 for w in range(1, 7))
    assert t.grid[5, 1] == 0


def test_dp_small_base_and_one_step():
    t = dp_m_small(4, 1, 2)
    assert t.grid[1, 1, 0] == Fraction(9, 4)
    assert t.grid[2, 1, 1] == 2
    assert t.grid[2, 1, 0] == Fraction(7, 4)


def test_dp_small_negative_budget_is_zero():
    from naenum.analysis import dp_m_small
    t = dp_m_small(2, 2, 1)
    # reachable only through the budget-spending branch; exhausting it kills
    assert t.grid[2, 1, 0] == Fraction(7, 4)  # cannot take the 2-branch


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_dp_tables_deeper_than_recursion_limit():
    old = sys.getrecursionlimit()
    limit = _stack_depth() + 100
    sys.setrecursionlimit(limit)
    try:
        large = dp_m_large(20, 3 * limit)
        small = dp_m_small(20, 3 * limit, 2)
    finally:
        sys.setrecursionlimit(old)
    d = 3 * limit
    # w <= d: the all-(largest factor) path is available at every level
    assert large.grid[20, d] == Fraction(5, 2) ** d
    assert small.grid[20, d, 2] == Fraction(9, 4) ** d
    assert large.grid[-3, d] == Fraction(5, 2) ** d


def test_dp_tables_refuse_oversized_grids():
    with pytest.raises(ParameterError):
        dp_m_small(2000, 1000, 1000)
    with pytest.raises(ParameterError):
        dp_m_large(10 ** 6, 1)


def test_csv_lines():
    t = dp_m_large(1, 1)
    lines = t.csv_lines()
    assert lines[0] == "w,d,value"
    assert any(line.startswith("1,1,5/2") for line in lines)


# ---------------------------------------------------------------- claims

def test_claim_grids_small():
    rep = verify_appendix_claims(grid2_w=(-3, 16), grid2_d=8,
                                 grid3_w=(-3, 12), grid3_d=6, grid3_h=6)
    assert rep.ok, [c.name for c in rep.checks if not c.ok]
    assert len(rep.checks) == 11


LARGE_GRID = dict(grid2_w=(-3, 120), grid2_d=60,
                  grid3_w=(-3, 60), grid3_d=30, grid3_h=30)


def test_claim_grids_large():
    """A grid beside the acceptance grid (criterion 4), not instead of it."""
    start = time.perf_counter()
    rep = verify_appendix_claims(**LARGE_GRID)
    elapsed = time.perf_counter() - start
    assert rep.ok, [c.name for c in rep.checks if not c.ok]
    assert sum(c.points for c in rep.checks) == 5 * 124 * 61 + 6 * 64 * 31 * 31
    assert elapsed <= 1.5


def test_claim_grids_refuse_empty_grids():
    for kw in (dict(grid2_d=-1), dict(grid3_h=-1), dict(grid3_w=(5, 4))):
        with pytest.raises(ParameterError):
            verify_appendix_claims(**kw)


def test_claim_kernel_detects_wrong_pieces(monkeypatch):
    # F on the wrong piece breaks the min identity; a DP entry above its
    # ceiling breaks the M <= G claims
    monkeypatch.setattr(analysis, "_small_case",
                        lambda w, d, h: 0 if w <= d + h else 3)
    monkeypatch.setattr(analysis, "_dp_large_rows",
                        lambda lo, wmax, dmax: [[3 * (d + 1)] * (wmax - lo + 1)
                                                for d in range(dmax + 1)])
    rep = verify_appendix_claims(grid2_w=(-3, 8), grid2_d=4,
                                 grid3_w=(-3, 8), grid3_d=4, grid3_h=4)
    failed = {c.name: c.witness for c in rep.checks if not c.ok}
    assert failed["large: M(w,d) <= G1"] == (-3, 0)
    assert failed["small: min(G1..G4) = F on the ordered region h <= d"]
    assert "small: G1 <= G2 iff w <= d, equality iff w = d" not in failed


@pytest.mark.parametrize("i, min_witness", [(0, (2, 1, 0)), (1, (-3, 1, 0)),
                                             (2, (-3, 1, 0)), (3, (-3, 1, 0))])
def test_claim_kernel_compares_with_each_form(monkeypatch, i, min_witness):
    # G_i divided by 4^d: unchanged at d = 0, below M(-3, 1, 0) = 9/4 at
    # d = 1, so the M <= G_i claim fails there first, and min(G1..G4) = F
    # fails where F is another form.  The kernel writes out each form's
    # comparisons, so each form is lowered in turn
    exps = list(analysis._SMALL_EXPONENTS)
    exps[i] = exps[i][:1] + (exps[i][1] - 4,) + exps[i][2:]     # a2d -= 4
    monkeypatch.setattr(analysis, "_SMALL_EXPONENTS", tuple(exps))
    rep = verify_appendix_claims(grid2_w=(-3, 4), grid2_d=2,
                                 grid3_w=(-3, 4), grid3_d=2, grid3_h=2)
    failed = {c.name: c.witness for c in rep.checks if not c.ok}
    assert failed["small: M(w,d,h) <= G_i for i=1..4"] == (-3, 1, 0)
    assert failed["small: min(G1..G4) = F on the ordered region h <= d"] == min_witness


# ---------------------------------------------------------------- certificates

def test_certificate_single_term():
    cert = n_of_u0(8, 2, 0, 0, 0)
    assert cert.value == QSqrt6(Fraction(27, 8))
    assert cert.i_value == 6 and cert.regime == "inner"


def test_certificate_i_value_example():
    assert n_of_u0(12, 2, 1, 1, 1).i_value == 10


def test_certificate_term_inequalities():
    for n in (8, 12):
        for prof in feasible_profiles(n):
            cert = n_of_u0(n, *prof)
            for term in cert.terms:
                assert term["d"] + term["h"] <= term["w"]


def test_certificate_terms_share_one_shape():
    # w - d - h = t0 - m'_R - m_B at every term, so every term's F is r or
    # every one is r*sqrt(6): n_of_u0 sums the r parts under one flag
    shapes = set()
    for n in range(8, 25, 2):
        for prof in feasible_profiles(n):
            cert = n_of_u0(n, *prof)
            t0, _, m_r, m_b = prof
            assert {t["w"] - t["d"] - t["h"] for t in cert.terms} == {t0 - m_r - m_b}
            terms = {t["F"].endswith("*sqrt(6)") for t in cert.terms}
            assert terms == {cert.value.root6}, (n, prof)
            assert cert.scaled() == _times(QSqrt6(3 ** t0), cert.value)
            shapes |= terms
    assert shapes == {False, True}


def test_certificate_boundary_regime_forms_agree():
    # at I = n the two candidate ceilings coincide (w = 3d - h exactly)
    found = 0
    for prof in feasible_profiles(12):
        cert = n_of_u0(12, *prof)
        if cert.regime == "boundary":
            for term in cert.terms:
                w, d, h = term["w"], term["d"], term["h"]
                assert g_small(3, w, d, h) == g_small(4, w, d, h)
            found += 1
    assert found


def test_certificate_closed_form():
    # a step of the sum spends (2, 1, 1) of (w, d, h), which halves F in
    # either case, so sum_i C(m'_R, i) (3/8)^i 2^-i = (19/16)^m'_R
    profiles = 0
    for n in range(4, 41, 2):
        for t0, t1, m_r, m_b in feasible_profiles(n):
            cert = n_of_u0(n, t0, t1, m_r, m_b)
            f = g_small(3 if cert.i_value <= n else 4,
                        n // 2 - t1, n // 2 - t0 - t1, m_r + m_b)
            scale = Fraction(5, 2) ** t1 * Fraction(19, 20) ** m_r
            assert cert.value == QSqrt6(scale * f.r, f.root6), (n, t0, t1, m_r, m_b)
            profiles += 1
    assert profiles == 4508


def test_certificate_refuses_inconsistency():
    with pytest.raises(ParameterError):
        n_of_u0(8, 2, 3, 0, 0)       # t1 > t0
    with pytest.raises(ParameterError):
        n_of_u0(8, 2, 1, 2, 0)       # m'_R > t1
    with pytest.raises(ParameterError):
        n_of_u0(9, 2, 0, 0, 0)       # odd n
    with pytest.raises(ParameterError):
        n_of_u0(8, 3, 0, 0, 0)       # 4 t0 > n
    with pytest.raises(ParameterError, match="nonnegative"):
        n_of_u0(8, 2, -1, 0, 0)
    with pytest.raises(ParameterError, match="deeper than the tree"):
        n_of_u0(8, 2, 2, 2, 0)       # t0 + t1 + m'_R = 6 levels > n/2


def test_estimate_psi_refuses_unknown_method():
    with pytest.raises(ParameterError, match="unknown method 'bogus'"):
        estimate_psi(negation_closure(maj(4, 3)), 2, 10, 0, method="bogus")


def test_global_bound_check_fast():
    rep = global_bound_check(ns_large=(8, 12), ns_controlled=(8, 12))
    assert rep.ok
    assert rep.details[0]["max_scaled_float"] <= rep.details[0]["bound"]


# ---------------------------------------------------------------- psi

@pytest.mark.parametrize("n, method", [(DEBUG_TREE_MAX_N, "tree"),
                                       (DEBUG_TREE_MAX_N + 1, "engine")])
def test_psi_auto_method_follows_debug_tree_limit(n, method):
    f = negation_closure(Formula.of(n, [(1, 2, 3)]))
    est = estimate_psi(f, 1, samples=3, seed=0)
    assert est.method == method and est.mean == 3.0


def test_psi_deterministic_tree():
    f = negation_closure(Formula.of(3, [(1, 2, 3)]))
    est = estimate_psi(f, 1, samples=50, seed=0, method="tree")
    assert est.mean == 3.0 and est.std_error == 0.0


@pytest.mark.parametrize("method", ["tree", "engine"])
@pytest.mark.parametrize("samples", [0, -3])
def test_psi_refuses_fewer_than_one_sample(method, samples):
    f = negation_closure(maj(4, 3))
    with pytest.raises(ParameterError):
        estimate_psi(f, 2, samples=samples, seed=0, method=method)


@pytest.mark.parametrize("method", ["tree", "engine"])
@pytest.mark.parametrize("kw", [{"seed": 2.5}, {"seed": None}, {"samples": 2.5}],
                         ids=["seed-2.5", "seed-None", "samples-2.5"])
def test_psi_refuses_non_integer_seed_or_samples(method, kw):
    f = negation_closure(maj(4, 3))
    args = {"samples": 10, "seed": 0, **kw}
    name = next(iter(kw))
    with pytest.raises(ParameterError, match=f"{name}=.* is not an integer"):
        estimate_psi(f, 2, method=method, **args)


@pytest.mark.parametrize("method", ["tree", "engine"])
def test_psi_accepts_numpy_integer_seed_and_samples(method):
    f = random_negation_closed(6, 4, seed=6)
    want = estimate_psi(f, 2, samples=20, seed=3, method=method)
    assert estimate_psi(f, 2, samples=np.int64(20), seed=np.int64(3),
                        method=method) == want


def test_psi_tree_seed_reduced_mod_2_64():
    # any int seeds the tree method, as it does the engine method; seeds in
    # [0, 2^64) are used as they are
    f = random_negation_closed(6, 4, seed=6)
    draws = {seed: analysis._tree_survival_samples(f, 2, 64, seed)
             for seed in (-1, 2 ** 64 - 1, -5, 2 ** 64 - 5, 2 ** 70 + 3, 3)}
    assert np.array_equal(draws[-1], draws[2 ** 64 - 1])
    assert np.array_equal(draws[-5], draws[2 ** 64 - 5])
    assert np.array_equal(draws[2 ** 70 + 3], draws[3])
    assert set(np.unique(draws[-1])) <= {7, 8}
    est = estimate_psi(f, 2, samples=64, seed=-1, method="tree")
    assert est.mean == float(draws[-1].mean())


def test_psi_estimators_agree_with_exhaustive():
    f = random_negation_closed(6, 4, seed=2006)
    rep = brute_force(f)
    exact = float(enumerate_all_orderings(f, rep.tau).mean_surviving)
    tree = estimate_psi(f, rep.tau, samples=3000, seed=1, method="tree")
    engine = estimate_psi(f, rep.tau, samples=400, seed=2, method="engine")
    assert abs(tree.mean - exact) <= 4 * tree.std_error + 1e-9
    assert abs(engine.mean - exact) <= 4 * engine.std_error + 1e-9


def test_engine_psi_counts_only_the_settled_tree():
    # the reset instances restart their search; leaves of the attempts a
    # reset throws away are not part of any ordering's surviving count
    from corpus import collision_reset_instance, structure_reset_instance
    from naenum import build_debug_tree, psi_exact

    for f in (negation_closure(maj(12, 3)), collision_reset_instance(),
              structure_reset_instance()):
        t = brute_force(f).tau
        exact = float(psi_exact(build_debug_tree(f, t)))
        est = estimate_psi(f, t, samples=300, seed=0, method="engine")
        assert abs(est.mean - exact) <= 3 * est.std_error


def test_psi_maj_extremal_no_variance():
    f = negation_closure(maj(8, 3))
    est = estimate_psi(f, 4, samples=200, seed=0, method="tree")
    assert est.mean == 36.0 and est.std_error == 0.0


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_exact_psi_at_most_headline_budget(n):
    # expected surviving-leaf count of the extremal trees meets the budget
    # with equality; n = 20 (88,573 nodes) is too slow for this suite
    from naenum import build_debug_tree, check_invariants, psi_exact

    f = negation_closure(maj(n, 3))
    tree = build_debug_tree(f, n // 2)
    assert psi_exact(tree) == Fraction(6) ** (n // 4)
    assert check_invariants(tree) == []


def test_psi_meta_trial_within_three_se():
    # repeated independent estimates land within three standard errors of the
    # exhaustive value in (essentially) every trial
    f = random_negation_closed(6, 4, seed=2006)
    rep = brute_force(f)
    exact = float(enumerate_all_orderings(f, rep.tau).mean_surviving)
    trials, hits = 60, 0
    for k in range(trials):
        est = estimate_psi(f, rep.tau, samples=400, seed=10_000 + k,
                           method="tree")
        if abs(est.mean - exact) <= 3 * est.std_error:
            hits += 1
    assert hits >= int(0.95 * trials)
