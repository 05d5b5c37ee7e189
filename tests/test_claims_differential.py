"""Differential tests: the hoisted claim loops of ``verify_appendix_claims``
against the frozen per-point kernel in ``reference_claims.py``.  The reports
must be equal, names, point counts and witnesses included, on the shipped
grids, on odd grids, and where a DP cell, a form's exponents or a case
function is changed so that claims fail.  A fixed list of such changes makes
every claim that ``verify_appendix_claims`` or ``global_bound_check`` reports
fail, so that none of them holds by construction."""

import math
from fractions import Fraction
from functools import partial

import pytest

from naenum import analysis
from naenum.analysis import verify_appendix_claims
from naenum.errors import InternalInvariantError
import reference_claims
from test_claims_golden import _generator


def _same(**grid):
    got = verify_appendix_claims(**grid).as_dict()
    assert got == reference_claims.verify_appendix_claims(**grid).as_dict()
    return got


# a small grid on which the changed kernels below fail
FAILING = dict(grid2_w=(-3, 8), grid2_d=4, grid3_w=(-3, 8), grid3_d=4, grid3_h=4)

# the golden file's grids: the acceptance grid (the defaults), the grids of
# test_claim_grids_small and test_claim_grids_large, and the CLI's --grid 6,
# which is also the benchmark's tiny claim grid; then odd ones
GRIDS = {**_generator().GRIDS,
         "w_above_-2": dict(grid2_w=(3, 30), grid2_d=9, grid3_w=(1, 20),
                            grid3_d=7, grid3_h=5),
         "h_above_d": dict(grid2_w=(-3, 10), grid2_d=3, grid3_w=(-3, 18),
                           grid3_d=3, grid3_h=11),
         "single_d": dict(grid2_w=(-3, 9), grid2_d=0, grid3_w=(-3, 9),
                          grid3_d=0, grid3_h=4),
         "single_w": dict(grid2_w=(5, 5), grid2_d=6, grid3_w=(-2, -2),
                          grid3_d=5, grid3_h=5)}


@pytest.mark.parametrize("name", GRIDS)
def test_reports_match_reference(name):
    assert _same(**GRIDS[name])["ok"]


def _raise_cell(monkeypatch, table: str, d: int, w: int, h: int | None, value):
    """Make ``_dp_<table>_rows`` return rows whose (w, d[, h]) cell is
    ``value(old)``, with every other cell as computed."""
    real = getattr(analysis, f"_dp_{table}_rows")

    def rows(lo, *args):
        out = real(lo, *args)
        if h is None:
            out[d][w - lo] = value(out[d][w - lo])
        else:
            out[d][w - lo][h] = value(out[d][w - lo][h])
        return out

    monkeypatch.setattr(analysis, f"_dp_{table}_rows", rows)


@pytest.mark.parametrize("table, d, w, h", [
    ("large", 0, -3, None), ("large", 3, 4, None), ("large", 4, 8, None),
    ("small", 0, -3, 0), ("small", 2, 3, 1), ("small", 4, 6, 4), ("small", 3, 8, 0),
])
def test_raised_dp_cell_fails_alike(monkeypatch, table, d, w, h):
    _raise_cell(monkeypatch, table, d, w, h, lambda v: 3 * v + 1)
    rep = _same(**FAILING)
    assert not rep["ok"]


def _between_min_and_f(wlo, whi, dmax, hmax):
    """A point with h > d where F is not the least form, and a DP value whose
    square over 16^d lies above the least form and at most F."""
    for d in range(dmax + 1):
        for w in range(wlo, whi + 1):
            for h in range(d + 1, hmax + 1):
                gs = analysis._squares(analysis._SMALL_EXPONENTS, w, d, h)[:4]
                fp, fq = gs[analysis._small_case(w, d, h)]
                p, q = min(gs, key=lambda g: Fraction(*g))
                m = math.isqrt(fp * 16 ** d // fq)      # m^2 / 16^d <= F
                if m * m * q > p * 16 ** d:             # and above min(G_i)
                    return d, w, h, m
    raise AssertionError("no such point on the grid")


def test_dp_cell_between_least_form_and_f_fails_alike(monkeypatch):
    # M <= F holds there, M <= G_i does not: the kernel must compare M with
    # the forms below F directly rather than read it off M <= F
    d, w, h, m = _between_min_and_f(-3, 8, 4, 4)
    _raise_cell(monkeypatch, "small", d, w, h, lambda v: m)
    rep = _same(**FAILING)
    failed = {c["name"]: c["witness"] for c in rep["checks"] if not c["ok"]}
    assert failed == {"small: M(w,d,h) <= G_i for i=1..4": [w, d, h]}


def _changed_exponent(monkeypatch, table: str, i: int, k: int, delta: int):
    """Add ``delta`` to coefficient k of form i's square exponents (a2w, a2d,
    a2h, a3w, ...) in ``_LARGE_EXPONENTS`` or ``_SMALL_EXPONENTS``."""
    name = f"_{table.upper()}_EXPONENTS"
    exps = list(getattr(analysis, name))
    exps[i] = exps[i][:k] + (exps[i][k] + delta,) + exps[i][k + 1:]
    monkeypatch.setattr(analysis, name, tuple(exps))


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("k, delta", [(1, -4), (0, 2), (4, 1), (7, 2)])
def test_changed_form_fails_alike(monkeypatch, i, k, delta):
    # k = 7 is a5d, a factor 5^(delta d) that no form has
    _changed_exponent(monkeypatch, "small", i, k, delta)
    assert not _same(**FAILING)["ok"]


@pytest.mark.parametrize("i, k, delta", [(0, 1, -4), (1, 0, 2), (1, 4, 1)])
def test_changed_large_form_fails_alike(monkeypatch, i, k, delta):
    _changed_exponent(monkeypatch, "large", i, k, delta)
    assert not _same(**FAILING)["ok"]


@pytest.mark.parametrize("large, small", [
    ((0, 0), (0, 0, 2, 3)), ((1, 1), (1, 1, 2, 3)),
    ((0, 1), (0, 1, 1, 3)), ((0, 1), (0, 1, 3, 3)),
    ((0, 1), (3, 1, 2, 3)),
])
def test_equal_forms_fail_alike(monkeypatch, large, small):
    # two forms made one: equality off the case boundaries breaks the order
    # claims, which read <, = and > off one pair of cross-products
    monkeypatch.setattr(analysis, "_LARGE_EXPONENTS",
                        tuple(analysis._LARGE_EXPONENTS[i] for i in large))
    monkeypatch.setattr(analysis, "_SMALL_EXPONENTS",
                        tuple(analysis._SMALL_EXPONENTS[i] for i in small))
    assert not _same(**FAILING)["ok"]


@pytest.mark.parametrize("i, delta", [(2, 1), (2, -2)])
def test_changed_h_term_fails_alike(monkeypatch, i, delta):
    # G3 carries h; a2h changes with h, point by point
    _changed_exponent(monkeypatch, "small", i, 2, delta)
    assert not _same(**FAILING)["ok"]


@pytest.mark.parametrize("i", [0, 1, 3])
def test_h_in_an_h_free_form_is_refused(monkeypatch, i):
    # the kernel squares G1, G2 and G4 once per (w, d)
    _changed_exponent(monkeypatch, "small", i, 2, 1)
    assert not reference_claims.verify_appendix_claims(**FAILING).ok
    with pytest.raises(InternalInvariantError, match="free of h"):
        verify_appendix_claims(**FAILING)


@pytest.mark.parametrize("large, small", [
    (lambda w, d: 1, lambda w, d, h: 0 if w <= d + h else 3),
    (lambda w, d: 0, lambda w, d, h: 2),
])
def test_wrong_case_fails_alike(monkeypatch, large, small):
    monkeypatch.setattr(analysis, "_large_case", large)
    monkeypatch.setattr(analysis, "_small_case", small)
    assert not _same(**FAILING)["ok"]


def _shifted_cases(monkeypatch, shift: int):
    real_large, real_small = analysis._large_case, analysis._small_case
    monkeypatch.setattr(analysis, "_large_case",
                        lambda w, d: (real_large(w, d) + shift) % 2)
    monkeypatch.setattr(analysis, "_small_case",
                        lambda w, d, h: (real_small(w, d, h) + shift) % 4)


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_shifted_case_fails_alike(monkeypatch, shift):
    _shifted_cases(monkeypatch, shift)
    assert not _same(**FAILING)["ok"]


def _doubled(monkeypatch, name: str):
    """Make the public ceiling ``f_large`` or ``g_small`` return twice its
    value."""
    real = getattr(analysis, name)

    def twice(*args):
        v = real(*args)
        return 2 * v if name == "f_large" else analysis.QSqrt6(2 * v.r, v.root6)

    monkeypatch.setattr(analysis, name, twice)


# a raised DP cell per table, a changed exponent per form (a2d lowered by 4,
# or a2w raised by 2 for the large forms), a shifted case function, and the
# public ceilings doubled where the global sweep reads them
MUTATIONS = [
    partial(_raise_cell, table="large", d=3, w=4, h=None, value=lambda v: 3 * v + 1),
    partial(_raise_cell, table="small", d=2, w=3, h=1, value=lambda v: 3 * v + 1),
    *(partial(_changed_exponent, table="large", i=i, k=0, delta=2)
      for i in range(len(analysis._LARGE_EXPONENTS))),
    *(partial(_changed_exponent, table="small", i=i, k=1, delta=-4)
      for i in range(len(analysis._SMALL_EXPONENTS))),
    partial(_shifted_cases, shift=1),
    partial(_doubled, name="f_large"),
    partial(_doubled, name="g_small"),
]


def _reports():
    return [verify_appendix_claims(**FAILING), analysis.global_bound_check()]


def test_every_reported_claim_can_fail(monkeypatch):
    names = {c.name for rep in _reports() for c in rep.checks}
    failed = set()
    for mutate in MUTATIONS:
        with monkeypatch.context() as mp:
            mutate(mp)
            failed |= {c.name for rep in _reports() for c in rep.checks if not c.ok}
    assert sorted(names - failed) == []
