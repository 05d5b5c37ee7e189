"""Closed-form bound functions, exact DP tables, grid verification of the
crossover/upper-bound claims, and survival-value estimation.

Each closed form G_i is defined once, in ``_LARGE_FORMS``/``_SMALL_FORMS``,
as a product of powers base**(cw*w + cd*d + ch*h) over the bases 5/2, 2,
3/2, 9/4 and sqrt(27/8) = 3*sqrt(6)/4.  The ceiling F stays piecewise: a
case index picks one G_i, so the claim min(G_i) = F is a check, not a
definition.  Every claim the grids report can fail; none holds by how F is
defined.

Every form is read one way: its square is 2^a 3^b 5^c, with (a, b, c) linear
in (w, d, h) and read off the definition once (``_square_exponents``).  At a
point the exponents become an integer pair P/Q for the claim kernel and,
through a square root, the exact value the public functions return: a
Fraction from ``g_large`` and ``f_large``, and a ``QSqrt6`` from ``g_small``
and ``f_small``, r or r*sqrt(6) with r a Fraction.

The claim grids never build those values.  Every closed form and DP entry is
nonnegative, so comparing two of them is comparing their squares; the DP
recurrences run bottom-up by depth on integers, 2^d * M(w,d) (factors 5, 4, 3)
and 4^d * M(w,d,h) (factors 9, 8, 7, 6).  Two squares P/Q compare by one pair
of cross-products of ints, whose two values give <=, >= and = alike (the
pairs are in lowest terms).  Each product is formed where its inputs change.
Per (w, d): the squares of the small-grid forms with no h term (G1, G2 and
G4), their cross-products and P * 16^d (P * 4^d on the large grid).  Per
point: the square of G3, its cross-products with the others, and M^2
against F.
M <= G_i follows from M <= F and F <= G_i where both hold and is compared
directly otherwise.  A point's predicates are examined one by one only when
their conjunction fails.  Nothing is decided by floats.  Fractions appear
only in the public values and the ``BoundTable`` values the public DP
functions return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .cnf import Formula
from .errors import InternalInvariantError, ParameterError
from .tree import SurvivalKernel, column_counts
from .treesearch import (DEBUG_TREE_MAX_N, OrderingSource, as_int,
                         build_debug_tree, surviving_leaves)


@dataclass(frozen=True)
class QSqrt6:
    """Exact r, or r*sqrt(6) when ``root6``, with r a nonnegative rational;
    ``as_json()`` writes it.  Ordered by squares, exact as none is negative."""

    r: Fraction
    root6: bool = False

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r < 0:
            raise ParameterError(f"QSqrt6 needs r >= 0, got {self.r}")
        object.__setattr__(self, "root6", self.root6 and self.r != 0)

    def _square(self) -> Fraction:
        return self.r * self.r * (6 if self.root6 else 1)

    def __le__(self, other: QSqrt6) -> bool:
        return self._square() <= other._square()

    def __lt__(self, other: QSqrt6) -> bool:
        return self._square() < other._square()

    def __float__(self):
        return float(self.r) * math.sqrt(6) if self.root6 else float(self.r)

    def as_json(self):
        return f"0+{self.r}*sqrt(6)" if self.root6 else str(self.r)


# ----------------------------------------------------------------------
# closed forms

# Each base is named by the exponents of 2, 3 and 5 in its square.
_5_2, _2, _3_2, _9_4 = (-2, 0, 2), (2, 0, 0), (-2, 2, 0), (-4, 4, 0)
_ROOT_27_8 = (-3, 3, 0)                                     # sqrt(27/8)

# A closed form is ((base, (cw, cd, ch)), ...): the product of
# base ** (cw*w + cd*d + ch*h).  These tuples are the only definition of G_i;
# ``_square_exponents`` turns each into the one input of the public values
# and of the claim kernel.
_LARGE_FORMS = (
    ((_5_2, (-1, 2, 0)), (_2, (1, -1, 0))),                 # (5/2)^(2d-w) 2^(w-d)
    ((_2, (-1, 3, 0)), (_3_2, (1, -2, 0))),                 # 2^(3d-w) (3/2)^(w-2d)
)
_SMALL_FORMS = (
    ((_9_4, (0, 1, 0)),),                                   # (9/4)^d
    ((_9_4, (-1, 2, 0)), (_2, (1, -1, 0))),                 # (9/4)^(2d-w) 2^(w-d)
    ((_9_4, (-1, 2, 0)), (_2, (0, 0, 1)),
     (_ROOT_27_8, (1, -1, -1))),                            # ... 2^h (27/8)^((w-d-h)/2)
    ((_2, (-1, 3, 0)), (_3_2, (1, -2, 0))),                 # 2^(3d-w) (3/2)^(w-2d)
)


def _square_exponents(form) -> tuple[int, ...]:
    """Coefficients (a2w, a2d, a2h, a3w, ..., a5h): the exponent of prime p in
    the square of the form is a_pw*w + a_pd*d + a_ph*h."""
    out = [0] * 9
    for base, c in form:
        for p, ep in enumerate(base):
            for k in range(3):
                out[3 * p + k] += ep * c[k]
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _square_pair(e2: int, e3: int, e5: int) -> tuple[int, int]:
    """(P, Q) with P/Q = 2^e2 3^e3 5^e5, in lowest terms."""
    p = q = 1
    for prime, e in ((2, e2), (3, e3), (5, e5)):
        if e >= 0:
            p *= prime ** e
        else:
            q *= prime ** -e
    return p, q


def _exponents(exps, w: int, d: int, h: int = 0) -> tuple[int, int, int]:
    """Exponents (e2, e3, e5) of the square at (w,d,h) of the form with square
    exponents ``exps``."""
    a2w, a2d, a2h, a3w, a3d, a3h, a5w, a5d, a5h = exps
    return (a2w * w + a2d * d + a2h * h, a3w * w + a3d * d + a3h * h,
            a5w * w + a5d * d + a5h * h)


# square exponents of G1, G2 (large) and of G1..G4 (small)
_LARGE_EXPONENTS = tuple(map(_square_exponents, _LARGE_FORMS))
_SMALL_EXPONENTS = tuple(map(_square_exponents, _SMALL_FORMS))


def _value(exps, w: int, d: int, h: int = 0) -> QSqrt6:
    """Exact value at (w,d,h) of the form with square exponents ``exps``.

    The square is 2^e2 3^e3 5^e5 and the value its root.  Only sqrt(27/8)
    makes e2 and e3 odd, and then both are, while e5 is always even: the
    value is r, or r*sqrt(6) with r = 2^((e2-1)/2) 3^((e3-1)/2) 5^(e5/2)
    when e2 is odd."""
    if d < 0:
        raise ParameterError("d must be nonnegative")
    if h < 0:
        raise ParameterError("h must be nonnegative")
    e2, e3, e5 = _exponents(exps, w, d, h)
    return QSqrt6(Fraction(*_square_pair(e2 // 2, e3 // 2, e5 // 2)), e2 % 2 == 1)


def _large_case(w: int, d: int) -> int:
    """Index of the G_i that the piecewise F(w,d) is."""
    return 0 if w <= 2 * d else 1


def _small_case(w: int, d: int, h: int) -> int:
    """Index of the G_i that the piecewise F(w,d,h) is."""
    if w <= d:
        return 0
    if w <= d + h:
        return 1
    return 2 if w <= 3 * d - h else 3


def g_large(i: int, w: int, d: int) -> Fraction:
    """G_i(w,d) of the two-case ceiling, i in 1..2; neither has a
    sqrt(27/8), so the value is rational."""
    if i not in (1, 2):
        raise ParameterError(f"g_large needs i in 1..2, got {i}")
    return _value(_LARGE_EXPONENTS[i - 1], w, d).r


def f_large(w: int, d: int) -> Fraction:
    """Survival-value ceiling for a depth-d subtree whose every root-to-leaf
    shoot weighs at least w, when every node has a marked edge."""
    return g_large(_large_case(w, d) + 1, w, d)


def g_small(i: int, w: int, d: int, h: int) -> QSqrt6:
    """G_i(w,d,h) of the four-case ceiling, i in 1..4."""
    if i not in (1, 2, 3, 4):
        raise ParameterError(f"g_small needs i in 1..4, got {i}")
    return _value(_SMALL_EXPONENTS[i - 1], w, d, h)


def f_small(w: int, d: int, h: int) -> QSqrt6:
    """Four-case ceiling with the extra parameter h bounding, per shoot, the
    twice-marked full-mass nodes ("heavy" nodes)."""
    return g_small(_small_case(w, d, h) + 1, w, d, h)


# ----------------------------------------------------------------------
# squared-integer kernel


def _squares(exps, w: int, d: int, h: int = 0) -> list[tuple[int, int]]:
    """Squares (P, Q) of the forms with square exponents ``exps`` at (w,d,h)."""
    return [_square_pair(*_exponents(e, w, d, h)) for e in exps]


# ----------------------------------------------------------------------
# DP recurrences

MAX_TABLE_CELLS = 1_000_000


def _check_cells(cells: int) -> None:
    if cells > MAX_TABLE_CELLS:
        raise ParameterError(f"grid of {cells} cells exceeds the limit "
                             f"of {MAX_TABLE_CELLS}")


def _dp_large_rows(lo: int, wmax: int, dmax: int) -> list[list[int]]:
    """rows[d][w - lo] = 2^d * M(w, d) for lo <= w <= wmax, lo <= -2.

    Each level spends one depth and 1, 2 or 3 weight for a factor 5/2, 2 or
    3/2, so 2^d M(w,d) = max(5 N(w-1), 4 N(w-2), 3 N(w-3)) one level down.
    For w <= 0 every descendant has w <= 0 too and 5/2 is the largest factor,
    so M(w, d) = (5/2)^d there."""
    width = wmax - lo + 1
    row = [1 if lo + k <= 0 else 0 for k in range(width)]
    rows = [row]
    for d in range(1, dmax + 1):
        prev = row
        row = [5 ** d] * min(-lo + 1, width)
        row += [max(5 * prev[k - 1], 4 * prev[k - 2], 3 * prev[k - 3])
                for k in range(len(row), width)]
        rows.append(row)
    return rows


def _dp_small_rows(lo: int, wmax: int, dmax: int,
                   hmax: int) -> list[list[list[int]]]:
    """rows[d][w - lo][h] = 4^d * M(w, d, h) for lo <= w <= wmax, lo <= -2,
    0 <= h <= hmax.

    A level spends (weight, budget) (1, 0), (2, 1), (2, 0) or (3, 0) for a
    factor 9/4, 2, 7/4 or 3/2; a negative budget is worth 0.  For w <= 0 the
    largest factor 9/4 is always available, so M(w, d, h) = (9/4)^d there."""
    width = wmax - lo + 1
    row = [[1 if lo + k <= 0 else 0] * (hmax + 1) for k in range(width)]
    rows = [row]
    for d in range(1, dmax + 1):
        prev = row
        k0 = min(-lo + 1, width)
        row = [[9 ** d] * (hmax + 1) for _ in range(k0)]
        # row k from rows k - 1, k - 2 and k - 3 of the level below, a whole
        # row at a time; s is row k - 2 one budget down.  Comparisons in
        # place of max() halve the time
        for a, b, c in zip(prev[k0 - 1:-1], prev[k0 - 2:], prev[k0 - 3:]):
            cells = []
            for x, y, z, s in zip(a, b, c, [0, *b]):
                x, y, z, s = 9 * x, 7 * y, 6 * z, 8 * s
                if y > x:
                    x = y
                if s > z:
                    z = s
                cells.append(z if z > x else x)
            row.append(cells)
        rows.append(row)
    return rows


@dataclass
class BoundTable:
    """Exact DP table over a (w,d) or (w,d,h) grid."""

    kind: str                   # "large" or "small"
    grid: dict

    def csv_lines(self) -> list[str]:
        head = "w,d,value" if self.kind == "large" else "w,d,h,value"
        return [head] + [",".join(map(str, (*key, v)))
                         for key, v in sorted(self.grid.items())]


_WMIN = -3  # low end of the public DP tables


def dp_m_large(wmax: int, dmax: int) -> BoundTable:
    """Worst-case survival-value recurrence on (shoot weight, depth): each
    level spends one depth and 1..3 weight for factors 5/2, 2, 3/2."""
    _check_cells(max(wmax - _WMIN + 1, 0) * (dmax + 1))
    rows = _dp_large_rows(_WMIN, wmax, dmax)
    grid = {(w, d): Fraction(rows[d][w - _WMIN], 2 ** d) for d in range(dmax + 1)
            for w in range(_WMIN, wmax + 1)}
    return BoundTable("large", grid)


def dp_m_small(wmax: int, dmax: int, hmax: int) -> BoundTable:
    """Recurrence with the heavy budget h: a full-mass twice-marked level
    costs (2, 1) in (weight, budget); other levels leave h alone."""
    _check_cells(max(wmax - _WMIN + 1, 0) * (dmax + 1) * (hmax + 1))
    rows = _dp_small_rows(_WMIN, wmax, dmax, hmax)
    grid = {(w, d, h): Fraction(rows[d][w - _WMIN][h], 4 ** d)
            for d in range(dmax + 1)
            for w in range(_WMIN, wmax + 1) for h in range(hmax + 1)}
    return BoundTable("small", grid)


# ----------------------------------------------------------------------
# claim verification


@dataclass
class ClaimCheck:
    name: str
    ok: bool
    points: int
    witness: tuple | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "points": self.points,
                "witness": list(self.witness) if self.witness else None}


@dataclass
class ClaimReport:
    checks: list[ClaimCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}


def _note_failures(witnesses: list, oks, point: tuple) -> None:
    """Record ``point`` as the witness of each failing predicate that has
    none yet."""
    for i, ok in enumerate(oks):
        if witnesses[i] is None and not ok:
            witnesses[i] = point


def _append_checks(report, names, count: int, witnesses) -> None:
    """One check per claim name, failed where it has a witness."""
    for name, w in zip(names, witnesses):
        report.checks.append(ClaimCheck(name, w is None, count, w))


_LARGE_CLAIMS = ("large: M(w,d) <= G1",
                 "large: M(w,d) <= G2",
                 "large: M(w,d) <= F",
                 "large: min(G1,G2) = F",
                 "large: G1 <= G2 iff w <= 2d, equality iff w = 2d")
_SMALL_CLAIMS = ("small: M(w,d,h) <= G_i for i=1..4",
                 "small: M(w,d,h) <= F",
                 "small: G1 <= G2 iff w <= d, equality iff w = d",
                 "small: G2 <= G3 iff w <= d+h, equality iff w = d+h",
                 "small: G3 <= G4 iff w <= 3d-h, equality iff w = 3d-h",
                 "small: min(G1..G4) = F on the ordered region h <= d")


def verify_appendix_claims(grid2_w: tuple[int, int] = (-3, 60),
                           grid2_d: int = 30,
                           grid3_w: tuple[int, int] = (-3, 40),
                           grid3_d: int = 20,
                           grid3_h: int = 20) -> ClaimReport:
    """Pointwise exact verification of the DP-vs-closed-form ceilings and the
    crossover order of the closed forms, with equality exactly on boundaries.

    The two-parameter min identity min(G1,G2) = F holds everywhere.  The
    three-parameter ladder identity min(G1..G4) = F needs the case boundaries
    ordered, i.e. h <= d; it is checked on that region, while the piecewise F
    itself is verified to dominate the DP everywhere on the grid.  Every
    comparison is made on squared values as integer pairs (module docstring).
    """
    (w2lo, w2hi), (w3lo, w3hi) = grid2_w, grid3_w
    if min(grid2_d, grid3_d, grid3_h) < 0 or w2lo > w2hi or w3lo > w3hi:
        raise ParameterError("claim grids must be nonempty")
    _check_cells((w2hi - w2lo + 1) * (grid2_d + 1))
    _check_cells((w3hi - w3lo + 1) * (grid3_d + 1) * (grid3_h + 1))
    rep = ClaimReport()
    _large_claims(rep, w2lo, w2hi, grid2_d)
    _small_claims(rep, w3lo, w3hi, grid3_d, grid3_h)
    return rep


def _large_claims(rep: ClaimReport, wlo: int, whi: int, dmax: int) -> None:
    """The five large-grid claims, points (w, d) with d outermost."""
    lo = min(wlo, -2)
    rows = _dp_large_rows(lo, whi, dmax)
    wit: list[tuple | None] = [None] * 5
    for d in range(dmax + 1):
        s, row = 4 ** d, rows[d]                    # M^2 = (2^d M)^2 / 4^d
        for w in range(wlo, whi + 1):
            g1, g2 = _squares(_LARGE_EXPONENTS, w, d)
            (p1, q1), (p2, q2) = g1, g2
            x, y = p1 * q2, p2 * q1                 # G1 <= G2 iff x <= y
            c = _large_case(w, d)
            fp, fq = (g1, g2)[c]
            n2 = row[w - lo] ** 2
            m_f = n2 * fq <= fp * s
            f_min = x <= y if c == 0 else x >= y
            order = x < y if w < 2 * d else x > y if w > 2 * d else x == y
            # M <= F <= G_i gives M <= G_i
            if not (m_f and f_min and order):
                _note_failures(wit, (n2 * q1 <= p1 * s, n2 * q2 <= p2 * s, m_f,
                                     f_min, order), (w, d))
    _append_checks(rep, _LARGE_CLAIMS, (whi - wlo + 1) * (dmax + 1), wit)


def _small_claims(rep: ClaimReport, wlo: int, whi: int, dmax: int,
                  hmax: int) -> None:
    """The six small-grid claims, points (w, d, h) with d outermost and h
    innermost.  G1, G2 and G4 must carry no h, as they are squared once per
    (w, d); the module docstring says what else is formed per (w, d) and
    what per point."""
    exps = _SMALL_EXPONENTS
    if any(any(exps[i][2::3]) for i in (0, 1, 3)):
        raise InternalInvariantError("the claim kernel needs G1, G2 and G4 "
                                     "free of h")
    a2, a3, a5 = exps[2][2::3]                      # G3's h terms
    lo = min(wlo, -2)
    rows = _dp_small_rows(lo, whi, dmax, hmax)
    case = _small_case
    wit: list[tuple | None] = [None] * 6
    for d in range(dmax + 1):
        s, rows_d = 16 ** d, rows[d]                # M^2 = (4^d M)^2 / 16^d
        for w in range(wlo, whi + 1):
            g1, g2, _, g4 = _squares(exps, w, d)
            (p1, q1), (p2, q2), (p4, q4) = g1, g2, g4
            s1, s2, s4 = p1 * s, p2 * s, p4 * s
            x12, y12 = p1 * q2, p2 * q1             # Gi <= Gj iff xij <= yij
            x14, y14 = p1 * q4, p4 * q1
            x24, y24 = p2 * q4, p4 * q2
            ok12 = x12 < y12 if w < d else x12 > y12 if w > d else x12 == y12
            # w <= d+h iff k2 <= h and w <= 3d-h iff h <= k3
            k2, k3 = w - d, 3 * d - w
            t2, t3, t5 = _exponents(exps[2], w, d)
            for h, m in enumerate(rows_d[w - lo]):
                g3 = p3, q3 = _square_pair(t2 + a2 * h, t3 + a3 * h, t5 + a5 * h)
                x23, y23 = p2 * q3, p3 * q2
                x34, y34 = p3 * q4, p4 * q3
                # "<= iff below the boundary, = iff on it" is one comparison
                ok23 = x23 < y23 if k2 < h else x23 > y23 if k2 > h else x23 == y23
                ok34 = x34 < y34 if h < k3 else x34 > y34 if h > k3 else x34 == y34
                c = case(w, d, h)
                if c == 0:
                    ff, sf = g1, s1
                    f_min = x12 <= y12 and x14 <= y14 and p1 * q3 <= p3 * q1
                elif c == 1:
                    ff, sf = g2, s2
                    f_min = x12 >= y12 and x23 <= y23 and x24 <= y24
                elif c == 2:
                    ff, sf = g3, p3 * s
                    f_min = x23 >= y23 and x34 <= y34 and p1 * q3 >= p3 * q1
                else:                               # c == 3
                    ff, sf = g4, s4
                    f_min = x14 >= y14 and x24 >= y24 and x34 >= y34
                n2 = m * m
                m_f = n2 * ff[1] <= sf
                # M <= F <= G_i gives M <= G_i; where F is not the least
                # form, M is compared with each form
                m_g = m_f and (f_min or (n2 * q1 <= s1 and n2 * q2 <= s2
                                         and n2 * q3 <= p3 * s and n2 * q4 <= s4))
                if not (m_g and ok12 and ok23 and ok34 and (f_min or h > d)):
                    _note_failures(wit, (m_g, m_f, ok12, ok23, ok34, f_min or h > d),
                                   (w, d, h))
    _append_checks(rep, _SMALL_CLAIMS, (whi - wlo + 1) * (dmax + 1) * (hmax + 1), wit)


# ----------------------------------------------------------------------
# per-node certificates and global sweeps


@dataclass
class NodeCertificate:
    """Evaluation of the survival-value ceiling for one controlled-route
    profile (t0, t1, m'_R, m_B): the per-term (w, d, h) triples, the exact
    value N, the regime index I, and the regime classification."""

    n: int
    t0: int
    t1: int
    m_r_prime: int
    m_b: int
    terms: list[dict]
    value: QSqrt6
    i_value: int
    regime: str              # "inner" (I < n), "boundary" (I = n), "outer"

    def scaled(self) -> QSqrt6:
        return QSqrt6(3 ** self.t0 * self.value.r, self.value.root6)

    def as_dict(self) -> dict:
        return {"n": self.n, "t0": self.t0, "t1": self.t1,
                "m_r_prime": self.m_r_prime, "m_b": self.m_b,
                "N": self.value.as_json(), "N_float": float(self.value),
                "I": self.i_value, "regime": self.regime,
                "terms": self.terms}


def n_of_u0(n: int, t0: int, t1: int, m_r_prime: int, m_b: int) -> NodeCertificate:
    """Exact survival ceiling N for a controlled-route profile, with the
    regime index I = 3*t0 + 2*t1 + m'_R + m_B.

    Feasibility: nonnegative parameters, m'_R <= t1, m_B + t1 <= t0,
    4*t0 <= n, and depth room t0 + t1 + m'_R <= n/2 (the controlled stage
    cannot outrun the tree depth).
    """
    if n % 2:
        raise ParameterError("n must be even")
    if min(t0, t1, m_r_prime, m_b) < 0:
        raise ParameterError("profile parameters must be nonnegative")
    if m_r_prime > t1 or m_b + t1 > t0 or 4 * t0 > n:
        raise ParameterError(
            f"infeasible profile (t0={t0}, t1={t1}, m'_R={m_r_prime}, m_B={m_b})")
    if t0 + t1 + m_r_prime > n // 2:
        raise ParameterError("profile deeper than the tree")
    half = n // 2
    i_value = 3 * t0 + 2 * t1 + m_r_prime + m_b
    regime = "boundary" if i_value == n else ("inner" if i_value < n else "outer")
    # every term satisfies d + h <= w, so only the last two cases of the
    # ceiling apply; which one is uniform over the terms and decided by the
    # regime index (both agree when I = n, where w = 3d - h exactly)
    case = 3 if i_value <= n else 4
    # w - d - h = t0 - m'_R - m_B at every term, so all terms' F have one
    # shape (G4 has no sqrt(27/8)): sum the r parts, carry the one flag
    total, root6 = Fraction(0), False
    terms = []
    for i in range(m_r_prime + 1):
        w = half - 2 * i - t1
        d = half - t0 - t1 - i
        h = m_r_prime + m_b - i
        coef = (Fraction(math.comb(m_r_prime, i)) * Fraction(3, 8) ** i)
        fv = g_small(case, w, d, h)
        total += coef * fv.r
        root6 = fv.root6
        terms.append({"i": i, "w": w, "d": d, "h": h,
                      "coef": str(coef), "F": fv.as_json()})
    scale = Fraction(5, 2) ** t1 * Fraction(4, 5) ** m_r_prime
    value = QSqrt6(scale * total, root6)
    return NodeCertificate(n, t0, t1, m_r_prime, m_b, terms, value,
                           i_value, regime)


def feasible_profiles(n: int) -> Iterable[tuple[int, int, int, int]]:
    for t0 in range(0, n // 4 + 1):
        for t1 in range(0, t0 + 1):
            for m_b in range(0, t0 - t1 + 1):
                for m_r in range(0, min(t1, n // 2 - t0 - t1) + 1):
                    yield (t0, t1, m_r, m_b)


@dataclass
class BoundReport(ClaimReport):
    details: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {**super().as_dict(), "details": self.details}


def global_bound_check(ns_large: Sequence[int] = tuple(range(8, 65, 4)),
                       ns_controlled: Sequence[int] = (8, 12, 16, 20)) -> BoundReport:
    """Exact global sweeps of the survival ceiling against 6^(n/4).

    Large-prefix route: 3^(n/4+D) * F(n/2, n/4-D) equals 6^(n/4) * (27/32)^D
    and never exceeds 6^(n/4).  Controlled route: 3^t0 * N <= 6^(n/4) over the
    full feasible profile grid, together with d + h <= w at every term and the
    regime equivalence (w <= 3d-h iff I <= n).
    """
    rep = BoundReport()

    def large_ok(n: int, delta: int) -> bool:
        lhs = Fraction(3) ** (n // 4 + delta) * f_large(n // 2, n // 4 - delta)
        bound = Fraction(6) ** (n // 4)
        return lhs == bound * Fraction(27, 32) ** delta and lhs <= bound

    pts = [(n, delta) for n in ns_large for delta in range(n // 4 + 1)]
    bad = next((p for p in pts if not large_ok(*p)), None)
    _append_checks(rep, ["large route: 3^(n/4+D) F(n/2, n/4-D) = 6^(n/4) (27/32)^D"
                         " <= 6^(n/4)"], len(pts), [bad])

    def controlled_ok(cert: NodeCertificate, scaled: QSqrt6, bound: QSqrt6) -> bool:
        inner = cert.i_value <= cert.n
        return scaled <= bound and all(
            t["d"] + t["h"] <= t["w"] and (t["w"] <= 3 * t["d"] - t["h"]) == inner
            for t in cert.terms)

    for n in ns_controlled:
        # one certificate per profile serves both the check and the argmax
        pts = [(n, *p) for p in feasible_profiles(n)]
        certs = {pt: n_of_u0(*pt) for pt in pts}
        scaled = {pt: cert.scaled() for pt, cert in certs.items()}
        bound = QSqrt6(Fraction(6) ** (n // 4))
        bad = next((pt for pt in pts
                    if not controlled_ok(certs[pt], scaled[pt], bound)), None)
        _append_checks(rep, [f"controlled route n={n}: 3^t0 N <= 6^(n/4), "
                             "d+h <= w, regime iff"], len(pts), [bad])
        top = max(pts, key=scaled.__getitem__)
        best = certs[top]
        rep.details.append({"n": n, "max_scaled_float": float(scaled[top]),
                            "bound": float(Fraction(6) ** (n // 4)),
                            "argmax": {"t0": best.t0, "t1": best.t1,
                                       "m_r_prime": best.m_r_prime,
                                       "m_b": best.m_b, "I": best.i_value}})
    return rep


# ----------------------------------------------------------------------
# survival-value estimation

_SAMPLE_BATCH = 256     # tree samples per kernel call; the seeded draws depend on it


@dataclass
class PsiEstimate:
    mean: float
    std_error: float
    samples: int
    method: str

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error,
                "samples": self.samples, "method": self.method}


def estimate_psi(f: Formula, t: int, samples: int, seed: int,
                 method: str = "auto") -> PsiEstimate:
    """Monte Carlo estimate of the expected surviving-leaf count under
    uniformly random sibling orderings.

    ``tree`` samples orderings over the materialized tree (fast, small n):
    each sibling group of k children draws one permutation code from [0, k!),
    so every sibling order is exactly equally likely (seeded with seed mod
    2^64).  ``engine`` reruns the actual pruned search per seed.  Both count
    the depth-t non-falsified leaves whose path survives; the engine counts
    them on the tree its run settles on, after any resets.
    """
    samples, seed = as_int(samples, "samples"), as_int(seed, "seed")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    if method == "auto":
        method = "tree" if f.n <= DEBUG_TREE_MAX_N else "engine"
    if method == "engine":
        counts = np.empty(samples, dtype=np.int64)
        for k in range(samples):
            counts[k] = surviving_leaves(f, t, OrderingSource.random(seed + k),
                                         debug_assertions=False)
    elif method == "tree":
        counts = _tree_survival_samples(f, t, samples, seed)
    else:
        raise ParameterError(f"unknown method {method!r}")
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return PsiEstimate(mean, se, samples, method)


def _tree_survival_samples(f: Formula, t: int, samples: int,
                           seed: int) -> np.ndarray:
    """Per sample, one permutation code per sibling group, uniform on [0, k!);
    the survival kernel counts the viable leaves whose path survives it."""
    kernel = SurvivalKernel(build_debug_tree(f, t))
    rng = np.random.default_rng(seed % 2 ** 64)
    out = np.empty(samples, dtype=np.int64)
    for done in range(0, samples, _SAMPLE_BATCH):
        b = min(_SAMPLE_BATCH, samples - done)
        # the kernel reads code c as c mod k!, which is exactly uniform on
        # a group's k! orders as k! divides 3! = 6
        codes = rng.integers(0, 6, size=(len(kernel.orders), b), dtype=np.uint8)
        alive = kernel.run(codes)[1]
        out[done:done + b] = column_counts(alive, b)
    return out
