"""Watching the base collection grow.

Maximum disjoint clause packing is NP-hard, so the search settles for a
greedily-maximal base collection and lets its own structural checks act as
improving oracles: whenever a check would fail, it hands over a strictly
larger disjoint family, the base is replaced and re-extended, and the attempt
restarts.  Each reset grows the base by at least one clause, so there are at
most n of them.  Only the base resets: the onemark collection is greedily
maximal, and the twomark collection of each depth-t0 node is a maximum family
of a pool that holds one disjoint clause at most per level.  A collection is
a sorted tuple of pairwise variable-disjoint clauses.
"""

import naenum as ne

# two once-marked clauses sit on both spare variables of one base clause with
# disjoint tails; swapping them in for that clause grows the base collection
f = ne.negation_closure(ne.Formula.of(8, [(1, 2, 3), (2, 4, 5), (3, 6, 7)]))
base = ne.greedy_maximal(ne.monotone_index(f))
print(f"greedy base collection: {list(base)} (size {len(base)})")

tau = ne.brute_force(f).tau
sols, stats = ne.collect_solutions(f, tau)
print(f"t = {tau}: {len(sols)} solutions, route = {stats.route}, "
      f"final t0 = {stats.t0}")
for ev in stats.reset_events:
    print(f"  reset[{ev['stage']}] {ev['old_size']} -> {ev['new_size']}: "
          f"{ev['reason']}")
assert ne.verify_enumeration(f, tau, sols).passed

# a twice-marked clause pairing one level's spare variable with another
# level's tail variable is a 1-for-2 swap witness
g = ne.negation_closure(ne.Formula.of(
    12, [(1, 8, 9), (2, 3, 8), (4, 10, 11), (5, 6, 10), (5, 7, 9)]))
tau = ne.brute_force(g).tau
sols, stats = ne.collect_solutions(g, tau)
print(f"\nsecond instance, t = {tau}: {len(sols)} solutions, "
      f"resets = {stats.resets}")
for ev in stats.reset_events:
    print(f"  reset[{ev['stage']}] {ev['old_size']} -> {ev['new_size']}: "
          f"{ev['reason']}")
assert ne.verify_enumeration(g, tau, sols).passed

# controlled-stage bookkeeping is exposed per depth-t0 node
h = ne.random_negation_closed(10, 11, seed=9)
tau = ne.brute_force(h).tau
_, stats = ne.collect_solutions(h, tau)
print(f"\nrandom controlled-route instance (n=10): t = {tau}")
for prof in stats.profiles[:3]:
    print(f"  u0 at {prof['q_u0']}: t1={prof['t1']} m_B={prof['m_b']} "
          f"m_R={prof['m_r']} m'_R={prof['m_r_prime']} I={prof['I']} "
          f"twomark lengths {prof['ell_histogram']}")
