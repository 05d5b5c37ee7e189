"""Enumerate the extremal block-majority family and watch the pruning work.

The block-majority formula over n variables (blocks of 4, every positive
triple per block) has minimum satisfying weight n/2 and exactly 6^(n/4)
minimum-weight solutions, all of them not-all-equal.  The pruned tree search
must produce each of them exactly once.
"""

import time

import naenum as ne

for n in (4, 8, 12):
    f = ne.negation_closure(ne.maj(n, 3))
    t = n // 2

    start = time.perf_counter()
    sols, stats = ne.collect_solutions(f, t)
    elapsed = time.perf_counter() - start

    oracle = ne.brute_force(f, t=t)
    assert sorted(sols) == list(oracle.weight_t_solutions)
    assert len(set(sols)) == len(sols)

    print(f"n={n:2d}  t={t}  solutions={len(sols):4d}  (= 6^{n//4})  "
          f"nodes={stats.nodes_visited:5d}  pruned={stats.superfluous_skips:4d}  "
          f"{elapsed*1000:6.1f} ms")

# The full (unpruned) tree repeats solutions; pruning removes exactly the
# repeats.  At n=4: nine viable leaves collapse to six distinct solutions.
f = ne.negation_closure(ne.maj(4, 3))
tree = ne.build_debug_tree(f, 2)
ones = [()] * len(tree.nodes)       # per node, the edge labels from the root
for u in tree.nodes[1:]:            # a parent's id is below its children's
    ones[u.id] = ones[u.parent] + (u.label,)
viable = [u for u in tree.nodes if u.leaf_kind == "viable"]
print(f"\nfull tree at n=4: {len(viable)} viable leaves, "
      f"{len(set(tuple(sorted(ones[u.id])) for u in viable))} distinct solutions")
_, stats = ne.count_solutions(f, 2)
print(f"pruned search visits {stats.leaves_visited} leaves "
      f"and skips {stats.superfluous_skips} superfluous edges")
