"""Write or check ``engine_golden.json``: the search engine's transcript on a
fixed instance set.

The instances are ``maj(12,3)`` and ``maj(16,3)``, the four reset instances,
the first 30 ``satisfiable_corpus`` instances and ten negation closures of
random mixed-sign clauses of width 1..3 (the corpora are monotone; these reach
the engine's negative-literal logic).  For every instance and ordering (fixed,
seed 0, seed 1) the file holds ``SearchStats.as_dict()`` and the sha256 of the
solution list in emission order; for the reset instances it also holds the
debug tree's node count and ``psi_exact``.  A change that alters the tree searched, the ordering stream or
the emission order shows up here.

    PYTHONPATH=src python tests/data/make_engine_golden.py           # rewrite
    PYTHONPATH=src python tests/data/make_engine_golden.py --check   # compare

Rewrite the file only when a change to the stream or the tree is intended;
``--check`` prints the first differing (instance, ordering, field).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "engine_golden.json"
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from corpus import (collision_reset_instance, heavy_reset_instance,  # noqa: E402
                    satisfiable_corpus, structure_reset_instance,
                    twomark_reset_instance)
from naenum import (Formula, OrderingSource, brute_force,  # noqa: E402
                    build_debug_tree, collect_solutions, maj,
                    negation_closure, psi_exact)

ORDERINGS = {"fixed": OrderingSource.fixed(),
             "seed0": OrderingSource.random(0),
             "seed1": OrderingSource.random(1)}
RESET_INSTANCES = ("collision_reset", "structure_reset", "heavy_reset",
                   "twomark_reset")


def mixed_sign_instances(count: int = 10, seed0: int = 9000):
    """Satisfiable closures of random mixed-sign clauses, with tau >= 2."""
    out = []
    s = seed0
    while len(out) < count:
        rng = random.Random(s)
        s += 1
        n = rng.randint(6, 10)
        clauses = [[v if rng.random() < 0.6 else -v
                    for v in rng.sample(range(1, n + 1), rng.choice((1, 2, 2, 3, 3)))]
                   for _ in range(rng.randint(n // 2, 2 * n))]
        f = negation_closure(Formula.of(n, clauses))
        tau = brute_force(f).tau
        if tau is not None and tau >= 2:
            out.append((f, tau))
    return out


def instances() -> list[tuple[str, object, int]]:
    out = [(f"maj{n}", negation_closure(maj(n, 3)), n // 2) for n in (12, 16)]
    for name, f in zip(RESET_INSTANCES,
                       (collision_reset_instance(), structure_reset_instance(),
                        heavy_reset_instance(), twomark_reset_instance())):
        out.append((name, f, brute_force(f).tau))
    for i, (f, rep) in enumerate(satisfiable_corpus(30)):
        out.append((f"corpus{i:02d}", f, rep.tau))
    for i, (f, tau) in enumerate(mixed_sign_instances()):
        out.append((f"mixed{i:02d}", f, tau))
    return out


def _sha(sols: list[tuple[int, ...]]) -> str:
    return hashlib.sha256(json.dumps([list(s) for s in sols]).encode()).hexdigest()


def transcript() -> dict:
    doc: dict = {}
    for name, f, t in instances():
        entry: dict = {"n": f.n, "t": t}
        for oname, ordering in ORDERINGS.items():
            sols, stats = collect_solutions(f, t, ordering)
            entry[oname] = {"stats": stats.as_dict(), "solutions_sha256": _sha(sols)}
        if name in RESET_INSTANCES:
            tree = build_debug_tree(f, t)
            entry["debug_tree"] = {"nodes": len(tree.nodes),
                                   "psi_exact": str(psi_exact(tree))}
        doc[name] = entry
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
    return None if want == got else path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the file instead of rewriting it")
    args = ap.parse_args(argv)
    got = transcript()
    if not args.check:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.name}: {len(got)} instances")
        return 0
    diff = first_difference(json.loads(GOLDEN.read_text()), got)
    if diff is None:
        print(f"{GOLDEN.name}: {len(got)} instances match")
        return 0
    ordering = diff[1] if len(diff) > 1 else "-"
    field = ".".join(str(p) for p in diff[2:]) or "-"
    print(f"first difference: instance={diff[0]} ordering={ordering} field={field}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
