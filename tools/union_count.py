"""Count the closure of maj(24,3) united with ``twomark_reset_instance()``.

The union (``disjoint_union`` in tests/corpus.py) has n = 38 and tau = 12 + 6
= 18.  Its weight-18 solutions are the pairs of one weight-tau solution per
side, so the count must be 6^6 * 18 = 839,808.  The search runs in count mode
under the default settings, so the exactly-once check and the other debug
assertions run at n = 38, under the fixed ordering, on the controlled route;
the script prints the count, the work and the time.  It also checks the tree
the search walked: 1,868,062 nodes visited, 798,255 superfluous skips and
933,120 surviving leaves, so a change to the controlled stage's clause
choice shows here at scale.  Last, it counts again with ``parallel=2`` and
requires the same count and the same ``SearchStats.as_dict()``: the parallel
driver on the controlled route, with more stage profiles than ``PROFILE_CAP``
keeps.

    python tools/union_count.py     # exit 1 unless count, tree and driver match
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from naenum import count_solutions, maj, negation_closure  # noqa: E402
from corpus import disjoint_union, twomark_reset_instance  # noqa: E402

T = 18
EXPECT = 6 ** 6 * 18
# fixed-ordering (nodes_visited, superfluous_skips, leaves_visited)
EXPECT_TREE = (1_868_062, 798_255, 933_120)


def main() -> int:
    f = disjoint_union(negation_closure(maj(24, 3)), twomark_reset_instance())
    start = time.perf_counter()
    count, stats = count_solutions(f, T)
    elapsed = time.perf_counter() - start
    print(f"n = {f.n}, t = {T}: {count:,} solutions, "
          f"{stats.nodes_visited:,} nodes, {stats.route} route, t0 = {stats.t0}, "
          f"{stats.resets['base']} base resets, {elapsed:.1f} s")
    if count != EXPECT:
        print(f"expected {EXPECT:,} solutions", file=sys.stderr)
        return 1
    tree = (stats.nodes_visited, stats.superfluous_skips, stats.leaves_visited)
    if tree != EXPECT_TREE:
        print(f"expected (nodes, skips, leaves) = {EXPECT_TREE}, got {tree}",
              file=sys.stderr)
        return 1
    start = time.perf_counter()
    par_count, par_stats = count_solutions(f, T, parallel=2)
    print(f"parallel=2: {par_count:,} solutions, "
          f"{time.perf_counter() - start:.1f} s")
    if (par_count, par_stats.as_dict()) != (count, stats.as_dict()):
        print("parallel=2 reports other stats than the sequential run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
