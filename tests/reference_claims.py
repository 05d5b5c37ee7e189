"""Frozen reference copy of the per-point claim kernel.

``verify_appendix_claims`` below is the implementation that the hoisted claim
loops in ``naenum.analysis`` replaced, kept with the grid pass it called: one
closure per grid evaluates every predicate of a point and returns them as a
tuple.  It reads the DP rows, the case functions and the square exponents
from ``naenum.analysis`` at call time, so a test that monkeypatches one of
them there changes both kernels alike.  Do not edit it to follow the package.
It has been edited once, for a named change to the claim report: the claims
"F equals one of G1..G4 everywhere" and "third-case forms agree", which held
by construction, left both kernels together.
"""

from __future__ import annotations

from typing import Iterable

from naenum import analysis
from naenum.analysis import ClaimCheck, ClaimReport
from naenum.errors import ParameterError


def _multi_check(report, points: Iterable, preds, names) -> None:
    """Evaluate a tuple of predicates per point in one grid pass, recording
    each predicate's first failing point as its witness."""
    count = 0
    witnesses: list[tuple | None] = [None] * len(names)
    for p in points:
        count += 1
        oks = preds(*p)
        if not all(oks):
            for i, ok in enumerate(oks):
                if witnesses[i] is None and not ok:
                    witnesses[i] = p
    for name, w in zip(names, witnesses):
        report.checks.append(ClaimCheck(name, w is None, count, w))


def verify_appendix_claims(grid2_w: tuple[int, int] = (-3, 60),
                           grid2_d: int = 30,
                           grid3_w: tuple[int, int] = (-3, 40),
                           grid3_d: int = 20,
                           grid3_h: int = 20) -> ClaimReport:
    (w2lo, w2hi), (w3lo, w3hi) = grid2_w, grid3_w
    if min(grid2_d, grid3_d, grid3_h) < 0 or w2lo > w2hi or w3lo > w3hi:
        raise ParameterError("claim grids must be nonempty")
    analysis._check_cells((w2hi - w2lo + 1) * (grid2_d + 1))
    analysis._check_cells((w3hi - w3lo + 1) * (grid3_d + 1) * (grid3_h + 1))
    rep = ClaimReport()
    lo2 = min(w2lo, -2)
    rows2 = analysis._dp_large_rows(lo2, w2hi, grid2_d)
    pts2 = ((w, d) for d in range(grid2_d + 1) for w in range(w2lo, w2hi + 1))

    def large_all(w, d):
        n2, s = rows2[d][w - lo2] ** 2, 4 ** d        # M^2 = (2^d M)^2 / 4^d
        gg = (p1, q1), (p2, q2) = analysis._squares(analysis._LARGE_EXPONENTS, w, d)
        ff = fp, fq = gg[analysis._large_case(w, d)]
        return (n2 * q1 <= p1 * s, n2 * q2 <= p2 * s, n2 * fq <= fp * s,
                ff in gg and all(fp * q <= p * fq for p, q in gg),
                ((p1 * q2 <= p2 * q1) == (w <= 2 * d))
                and ((gg[0] == gg[1]) == (w == 2 * d)))

    _multi_check(rep, pts2, large_all,
                 ["large: M(w,d) <= G1",
                  "large: M(w,d) <= G2",
                  "large: M(w,d) <= F",
                  "large: min(G1,G2) = F",
                  "large: G1 <= G2 iff w <= 2d, equality iff w = 2d"])

    lo3 = min(w3lo, -2)
    rows3 = analysis._dp_small_rows(lo3, w3hi, grid3_d, grid3_h)
    pts3 = ((w, d, h) for d in range(grid3_d + 1)
            for w in range(w3lo, w3hi + 1) for h in range(grid3_h + 1))

    # a form with no h term is squared once per (w, d), the others per point;
    # h varies fastest, so only the current (w, d) is kept
    h_forms = [(i, e) for i, e in enumerate(analysis._SMALL_EXPONENTS) if any(e[2::3])]
    wd = wd_squares = None

    def small_all(w, d, h):
        nonlocal wd, wd_squares
        n2, s = rows3[d][w - lo3][h] ** 2, 16 ** d    # M^2 = (4^d M)^2 / 16^d
        if wd != (w, d):
            wd, wd_squares = (w, d), analysis._squares(analysis._SMALL_EXPONENTS, w, d)
        gg = wd_squares[:]
        for i, (a2w, a2d, a2h, a3w, a3d, a3h, a5w, a5d, a5h) in h_forms:
            gg[i] = analysis._square_pair(a2w * w + a2d * d + a2h * h,
                                          a3w * w + a3d * d + a3h * h,
                                          a5w * w + a5d * d + a5h * h)
        (p1, q1), (p2, q2), (p3, q3), (p4, q4) = gg
        ff = fp, fq = gg[analysis._small_case(w, d, h)]
        return (n2 * q1 <= p1 * s and n2 * q2 <= p2 * s
                and n2 * q3 <= p3 * s and n2 * q4 <= p4 * s,
                n2 * fq <= fp * s,
                ((p1 * q2 <= p2 * q1) == (w <= d)) and ((gg[0] == gg[1]) == (w == d)),
                ((p2 * q3 <= p3 * q2) == (w <= d + h))
                and ((gg[1] == gg[2]) == (w == d + h)),
                ((p3 * q4 <= p4 * q3) == (w <= 3 * d - h))
                and ((gg[2] == gg[3]) == (w == 3 * d - h)),
                h > d or (ff in gg and fp * q1 <= p1 * fq and fp * q2 <= p2 * fq
                          and fp * q3 <= p3 * fq and fp * q4 <= p4 * fq))

    _multi_check(rep, pts3, small_all,
                 ["small: M(w,d,h) <= G_i for i=1..4",
                  "small: M(w,d,h) <= F",
                  "small: G1 <= G2 iff w <= d, equality iff w = d",
                  "small: G2 <= G3 iff w <= d+h, equality iff w = d+h",
                  "small: G3 <= G4 iff w <= 3d-h, equality iff w = 3d-h",
                  "small: min(G1..G4) = F on the ordered region h <= d"])
    return rep
