"""Exact bound tables and the global sweeps.

Two worst-case recurrences bound the expected surviving-leaf count of a
subtree by how much shoot weight and depth remain (plus, on the controlled
route, a budget of full-mass twice-marked nodes).  Closed forms dominate the
recurrences pointwise, crossovers between the closed forms sit exactly on
their stated boundaries, and scaling the per-node certificates by the
3^t0 prefix count never exceeds 6^(n/4) over any feasible profile.

All of it is checked in exact arithmetic.  Each value is a rational r, or
r*sqrt(6) where an odd power of sqrt(27/8) appears (``QSqrt6``); two values
compare by their squares, and ``as_json()`` writes one, as 27/8 or
0+3/4*sqrt(6).
"""

from naenum.analysis import (QSqrt6, dp_m_large, f_large, global_bound_check,
                             n_of_u0, verify_appendix_claims)

table = dp_m_large(12, 6)
print("recurrence vs closed form along d = w/2:")
for d in range(1, 7):
    w = 2 * d
    print(f"  M({w},{d}) = {table.grid[w, d]}   F({w},{d}) = {f_large(w, d)}")

print("\nclaim grids (small demo ranges):")
rep = verify_appendix_claims(grid2_w=(-3, 20), grid2_d=10,
                             grid3_w=(-3, 16), grid3_d=8, grid3_h=8)
for check in rep.checks:
    print(f"  [{'PASS' if check.ok else 'FAIL'}] {check.name}")

print("\nper-profile certificates at n = 8:")
for prof in ((2, 0, 0, 0), (2, 0, 0, 2), (1, 1, 1, 0)):
    cert = n_of_u0(8, *prof)
    print(f"  t0,t1,m'R,mB = {prof}: N = {cert.value.as_json()}  I = {cert.i_value} "
          f"({cert.regime})  3^t0 N = {cert.scaled().as_json()} "
          f"{'<=' if cert.scaled() <= QSqrt6(36) else '>'} 36")

print("\nglobal sweeps:")
gb = global_bound_check()
for check in gb.checks:
    print(f"  [{'PASS' if check.ok else 'FAIL'}] {check.name} ({check.points} points)")
for d in gb.details:
    print(f"  n={d['n']:2d}: max 3^t0 N = {d['max_scaled_float']:.1f} "
          f"attained at {d['argmax']} (budget {d['bound']:.0f})")
