#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at ``--scale tiny`` with tracing off and on, and checks
that each run is correct and emits exactly the metrics ``BENCHMARK.json``
names, each with its unit.  It also checks the span arithmetic, the handling
of a binding that has disappeared, the fixed-ordering identity counts of
``maj(20,3)``, and that the benchmark refuses a directory holding only its
own files.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT, run: Path = RUN):
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result has exactly the four keys")
            check(res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1, f"{tag}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: every {key} metric emitted with its unit"
                  + ("" if got == want else f" (missing {sorted(set(want) - set(got))},"
                     f" extra {sorted(set(got) - set(want))}, units "
                     f"{ {k: got[k] for k in got if k in want and got[k] != want[k]} })"))
            values = [v["value"] for v in res["metrics"].values()]
            check(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in values), f"{tag}: every value is a number")
            if trace == 0:
                check(all(v > 0 for v in values), f"{tag}: no end-to-end metric is 0")
            else:
                calls = res["metrics"]["selection.build_stage_profile.calls"]["value"]
                if workload == "maj-extremal":
                    check(calls == 0, f"{tag}: maj builds no stage profiles")
                if workload == "random-corpus":
                    check(calls > 0, f"{tag}: the corpus builds stage profiles")


def span_arithmetic() -> None:
    from spans import Rebind, Recorder

    rec = Recorder()
    rec.spans = [["treesearch.a", 0, 100, None, "r"],
                 ["selection.b", 10, 40, 0, "r"],
                 ["matching.c", 15, 25, 1, "r"],
                 ["treesearch.a", 0, 7, None, "other"]]
    agg = rec.aggregate("r")
    check(agg["calls"] == {"treesearch.a": 1, "selection.b": 1, "matching.c": 1}
          and agg["self_s"] == {"treesearch": 70e-9, "selection": 20e-9,
                                "matching": 10e-9},
          "self time is span time minus child spans, per run id")

    mod = types.ModuleType("perfbench_selftest_mod")
    mod.present = lambda x: x + 1
    original = mod.present
    sys.modules[mod.__name__] = mod
    rec = Recorder()
    rec.run_id = "p"
    with Rebind(rec, [(mod.__name__, "present", "cnf.present", None),
                      (mod.__name__, "gone", "cnf.gone", None),
                      ("perfbench_no_such_module", "f", "cnf.f", None)]) as rb:
        value = mod.present(1)
    check(value == 2 and mod.present is original
          and rec.aggregate("p")["calls"] == {"cnf.present": 1}
          and rb.absent == [f"{mod.__name__}.gone", "perfbench_no_such_module.f"],
          "rebinding traces, restores, and lists vanished bindings as absent")


def identity_counts() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import naenum as ne
    import workloads

    f = ne.negation_closure(ne.maj(20, 3))
    op = workloads.engine_op("collect", f, 10, ne.OrderingSource.fixed(),
                             lambda _r: None)
    c = op.account(op.fn())
    got = (c["fixed.nodes_visited"], c["fixed.superfluous_skips"],
           c["fixed.leaves_visited"])
    check(got == (15430, 7533, 7776),
          f"fixed-ordering counts on maj(20,3) are {got}, seed values 15430/7533/7776")


def refuses_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench("maj-extremal", 0, cwd=bare, run=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "exits non-zero without a result where src/naenum is missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    span_arithmetic()
    identity_counts()
    refuses_bare_directory()
    smoke_runs(spec)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
