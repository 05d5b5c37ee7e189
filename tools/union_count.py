"""Count two controlled-route unions: the closures of maj(20,3) and of
maj(24,3), each united with ``twomark_reset_instance()``.

A union (``disjoint_union`` in tests/corpus.py) of the closure of maj(m,3)
with that instance has n = m + 14 and tau = m/2 + 6.  Its weight-tau
solutions are the pairs of one weight-tau solution per side, so the count
must be 6^(m/4) * 18.  The searches run in count mode under the default settings, so the exactly-once
check and the other debug assertions run at n = 34 and n = 38, under the
fixed ordering, on the controlled route; the script prints each count, the
work, the time and the nodes searched per second.  It also checks the tree
each search walked, so a change to the controlled stage's clause choice
shows here at scale:

    n = 34, t = 16:    139,968 solutions; 319,423 nodes visited,
                       141,669 superfluous skips, 155,520 surviving leaves
    n = 38, t = 18:    839,808 solutions; 1,868,062 nodes visited,
                       798,255 superfluous skips, 933,120 surviving leaves

Last, it counts the n = 38 union again with ``parallel=2`` and requires the
same count and the same ``SearchStats.as_dict()``: the parallel driver on
the controlled route, with more stage profiles than ``PROFILE_CAP`` keeps.

    python tools/union_count.py     # exit 1 unless counts, trees and driver match
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from naenum import count_solutions, maj, negation_closure  # noqa: E402
from corpus import disjoint_union, twomark_reset_instance  # noqa: E402

# maj(m,3) side -> (t, solutions, fixed-ordering (nodes_visited,
# superfluous_skips, leaves_visited))
UNIONS = {
    20: (16, 6 ** 5 * 18, (319_423, 141_669, 155_520)),
    24: (18, 6 ** 6 * 18, (1_868_062, 798_255, 933_120)),
}


def main() -> int:
    for m, (t, expect, expect_tree) in UNIONS.items():
        f = disjoint_union(negation_closure(maj(m, 3)), twomark_reset_instance())
        start = time.perf_counter()
        count, stats = count_solutions(f, t)
        elapsed = time.perf_counter() - start
        print(f"n = {f.n}, t = {t}: {count:,} solutions, "
              f"{stats.nodes_visited:,} nodes, {stats.route} route, "
              f"t0 = {stats.t0}, {stats.resets['base']} base resets, "
              f"{elapsed:.2f} s, {stats.nodes_visited / elapsed:,.0f} nodes/s")
        if count != expect:
            print(f"expected {expect:,} solutions", file=sys.stderr)
            return 1
        tree = (stats.nodes_visited, stats.superfluous_skips, stats.leaves_visited)
        if tree != expect_tree:
            print(f"expected (nodes, skips, leaves) = {expect_tree}, got {tree}",
                  file=sys.stderr)
            return 1
    start = time.perf_counter()
    par_count, par_stats = count_solutions(f, t, parallel=2)
    print(f"parallel=2: {par_count:,} solutions, "
          f"{time.perf_counter() - start:.1f} s")
    if (par_count, par_stats.as_dict()) != (count, stats.as_dict()):
        print("parallel=2 reports other stats than the sequential run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
