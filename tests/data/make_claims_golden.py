"""Write or check ``claims_golden.json``: the exact bound checkers' reports on
fixed grids.

The file holds ``ClaimReport.as_dict()`` of ``verify_appendix_claims`` on the
acceptance grid (criterion 4), on the grid of ``test_claim_grids_small``, on
the grid of ``naenum bound --verify-claims --grid 6`` and on the larger grid
(-3 <= w <= 120, d <= 60 and -3 <= w <= 60, d, h <= 30), plus
``global_bound_check().as_dict()`` with its default sweeps and the sha256 of
the DP tables' CSV dumps at ``--grid 30``.  A change to how the claims are
decided must reproduce all of it exactly.

    PYTHONPATH=src python tests/data/make_claims_golden.py           # rewrite
    PYTHONPATH=src python tests/data/make_claims_golden.py --check   # compare

``--check`` prints the first differing entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "claims_golden.json"
sys.path.insert(0, str(HERE.parent.parent / "src"))

from naenum import analysis  # noqa: E402


def _cli_grid(g: int) -> dict:
    """The grids ``naenum bound --verify-claims --grid g`` checks."""
    g3 = (2 * g) // 3
    return dict(grid2_w=(-3, 2 * g), grid2_d=g,
                grid3_w=(-3, 2 * g3), grid3_d=g3, grid3_h=g3)


GRIDS = {
    "acceptance": dict(grid2_w=(-3, 60), grid2_d=30,
                       grid3_w=(-3, 40), grid3_d=20, grid3_h=20),
    "test_small": dict(grid2_w=(-3, 16), grid2_d=8,
                       grid3_w=(-3, 12), grid3_d=6, grid3_h=6),
    "cli_grid6": _cli_grid(6),
    "large": dict(grid2_w=(-3, 120), grid2_d=60,
                  grid3_w=(-3, 60), grid3_d=30, grid3_h=30),
}


def _table_sha(table) -> str:
    return hashlib.sha256(("\n".join(table.csv_lines()) + "\n").encode()).hexdigest()


def reports() -> dict:
    doc = {"claims": {name: analysis.verify_appendix_claims(**kw).as_dict()
                      for name, kw in GRIDS.items()},
           "global": analysis.global_bound_check().as_dict(),
           "tables_grid30_sha256": {
               "large": _table_sha(analysis.dp_m_large(60, 30)),
               "small": _table_sha(analysis.dp_m_small(40, 20, 20))}}
    # round-trip so tuples compare equal to what the file holds
    return json.loads(json.dumps(doc))


def first_difference(want, got, path: tuple = ()) -> tuple | None:
    """Path to the first differing leaf of two JSON values, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in list(want) + [k for k in got if k not in want]:
            if k not in want or k not in got:
                return path + (k,)
            d = first_difference(want[k], got[k], path + (k,))
            if d is not None:
                return d
        return None
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (a, b) in enumerate(zip(want, got)):
            d = first_difference(a, b, path + (i,))
            if d is not None:
                return d
        return None
    return None if want == got else path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the file instead of rewriting it")
    args = ap.parse_args(argv)
    got = reports()
    if not args.check:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.name}")
        return 0
    diff = first_difference(json.loads(GOLDEN.read_text()), got)
    if diff is None:
        print(f"{GOLDEN.name}: all reports match")
        return 0
    print("first difference: " + ".".join(str(p) for p in diff))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
