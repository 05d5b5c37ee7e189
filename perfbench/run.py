#!/usr/bin/env python3
"""Single-process, closed-loop benchmark of the naenum package.

    python3 perfbench/run.py --workload maj-extremal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One caller makes each call of a public
entry point after the previous one returns.  A *pass* runs every operation of
the workload once; passes repeat until ``--seconds`` have gone by.  Each raw
time is divided by the speed factor measured next to it (see calibrate.py),
and a call's cost is the median of its calibrated times.  Each result is
checked outside its timed interval.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the spans
of the traced ones; the spans are written, gzipped, to ``perfbench/out/``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it repeat the metrics for a
reader.

Set-up time is measured in fresh interpreters (``--setup-probe``), so that
the import of ``naenum`` is paid each time.  ``--scale tiny`` shrinks every
workload for the self-test.  Exit status 2 means the checkout has no
``src/naenum`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "naenum"
OUT = HERE / "out"
WORKLOAD_NAMES = ("maj-extremal", "random-corpus", "certify")
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "nodes_per_s": "1/s",
    "solutions_per_s": "1/s", "call_p50_ms": "ms", "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "treesearch.count_fixed_s": "s",
    "treesearch.count_random_s": "s",
    "treesearch.collect_s": "s",
    "treesearch.ordering_cost": "ratio",
    "treesearch.survival_ratio": "ratio",
    "treesearch.skip_ratio": "ratio",
    "treesearch.nodes_visited.fixed": "count",
    "treesearch.superfluous_skips.fixed": "count",
    "treesearch.leaves_visited.fixed": "count",
    "treesearch.resets.base": "count",
    "treesearch.resets.onemark": "count",
    "treesearch.resets.twomark": "count",
    "treesearch.validate_engine_input_s": "s",
    "treesearch.enumerate_all_orderings_s": "s",
    "treesearch.parallel2_speedup": "ratio",
    "treesearch.count_peak_bytes": "B",
    "treesearch.count_bytes_per_solution": "B/solution",
    "selection.build_stage_profile.calls": "count",
    "selection.build_stage_profile.s": "s",
    "selection.build_stage_profile.share": "ratio",
    "selection.twomark_context.calls": "count",
    "matching.greedy_maximal.calls": "count",
    "matching.greedy_maximal.s": "s",
    "matching.attempt_reset.calls": "count",
    "matching.attempt_reset.grown": "count",
    "cnf.is_negation_closed_s": "s",
    "cnf.negation_closure_s": "s",
    "generators.s": "s",
    "oracle.brute_force_s": "s",
    "oracle.assignments_per_s": "1/s",
    "analysis.dp_m_large_s": "s",
    "analysis.dp_m_small_s": "s",
    "analysis.verify_appendix_claims_s": "s",
    "analysis.claim_points": "count",
    "analysis.global_bound_check_s": "s",
    "analysis.estimate_psi.tree.samples_per_s": "1/s",
    "analysis.estimate_psi.engine.samples_per_s": "1/s",
    "tree.psi_exact_s": "s",
    "tree.check_invariants_s": "s",
    "trace.overhead": "ratio",
    **{f"{layer}.self_s": "s" for layer in (
        "cnf", "generators", "matching", "selection", "treesearch", "tree",
        "oracle", "analysis")},
}

# per-layer metrics read from one span name; reported absent when every
# binding that records that span is gone from the package
SPAN_METRICS = {
    "treesearch.validate_engine_input_s": ("treesearch.validate_engine_input", "s"),
    "selection.build_stage_profile.calls": ("selection.build_stage_profile", "calls"),
    "selection.build_stage_profile.s": ("selection.build_stage_profile", "s"),
    "selection.twomark_context.calls": ("selection.twomark_context", "calls"),
    "matching.greedy_maximal.calls": ("matching.greedy_maximal", "calls"),
    "matching.greedy_maximal.s": ("matching.greedy_maximal", "s"),
    "matching.attempt_reset.calls": ("matching.attempt_reset", "calls"),
    "cnf.is_negation_closed_s": ("cnf.is_negation_closed", "s"),
    "analysis.dp_m_large_s": ("analysis.dp_m_large", "s"),
    "analysis.dp_m_small_s": ("analysis.dp_m_small", "s"),
    "analysis.verify_appendix_claims_s": ("analysis.verify_appendix_claims", "s"),
    "analysis.global_bound_check_s": ("analysis.global_bound_check", "s"),
    "oracle.brute_force_s": ("oracle.brute_force", "s"),
    "tree.psi_exact_s": ("tree.psi_exact", "s"),
    "tree.check_invariants_s": ("tree.check_invariants", "s"),
    "treesearch.enumerate_all_orderings_s": ("treesearch.enumerate_all_orderings", "s"),
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-probe", action="store_true",
                   help="import naenum, build the inputs, print the seconds taken")
    return p.parse_args(argv)


def import_package():
    """Import naenum from this checkout's ``src``, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no naenum package at {PACKAGE.relative_to(ROOT)}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    import naenum

    if Path(naenum.__file__).resolve().parent != PACKAGE:
        print(f"imported naenum from {naenum.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)
    return naenum


def setup_probe(args) -> None:
    before = calibrate.sample()
    start = time.perf_counter()
    import_package()
    import workloads

    workloads.WORKLOADS[args.workload].build(args.seed, args.scale, workloads.direct)
    elapsed = time.perf_counter() - start
    print(repr(elapsed / ((before + calibrate.sample()) / 2)))


def measure_setup(args) -> float:
    """Median calibrated set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", args.scale],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ----------------------------------------------------------------------
# passes


@dataclass
class Pass:
    traced: bool
    times: list[float | None] = field(default_factory=list)   # per op; None if it raised
    windows: list[tuple | None] = field(default_factory=list)  # (start, end) per op
    factors: list[float | None] = field(default_factory=list)  # speed factor per op
    counts: list[dict] = field(default_factory=list)          # per op, from op.account
    tag_time: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    spans: dict | None = None


def run_pass(ops, speed, recorder=None, run_id: str = "", targets=(),
             deadline: float | None = None) -> Pass:
    """Call every op once, in order; stop early once ``deadline`` passes."""
    from spans import Rebind

    p = Pass(traced=recorder is not None, times=[None] * len(ops),
             windows=[None] * len(ops), factors=[None] * len(ops),
             counts=[{} for _ in ops])
    if recorder is not None:
        recorder.run_id = run_id
    # every pass starts from an empty collector, so garbage collections fall
    # at the same calls in every pass
    gc.collect()
    with Rebind(recorder, targets) if recorder else contextlib.nullcontext() as rebind:
        for i, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            p.attempted += 1
            start = speed.clock()
            try:
                result = recorder.call(op.span, op.fn) if recorder else op.fn()
            except Exception:          # a failed call is counted, not fatal
                p.failures.append(f"{op.span} raised:\n{traceback.format_exc()}")
                continue
            end = speed.clock()
            dt = end - start
            p.times[i] = dt
            p.windows[i] = (start, end)
            p.tag_time[op.tag] += dt
            p.counts[i] = op.account(result)
            p.counters.update(p.counts[i])
            message = op.check(result)
            if message:
                p.failures.append(f"{op.span} [{op.tag}]: {message}")
    if recorder is not None:
        p.spans = recorder.aggregate(run_id)
        p.spans["absent"] = rebind.absent
    return p


def measure(ops, seconds: float, recorder=None, targets=()) -> list[Pass]:
    """Call the ops round-robin for ``seconds``.  Untraced, the first pass is
    whole and the last one stops where the time runs out.  With a recorder,
    whole passes alternate untraced and traced, at least one of each."""
    passes: list[Pass] = []
    with calibrate.Speed() as speed:
        if recorder is not None:
            recorder.clock = lambda: int(speed.clock() * 1e9)
        deadline = time.perf_counter() + seconds
        if recorder is None:
            while not passes or time.perf_counter() < deadline:
                passes.append(run_pass(ops, speed,
                                       deadline=deadline if passes else None))
        else:
            while len(passes) < 2 or time.perf_counter() < deadline:
                traced = len(passes) % 2 == 1
                passes.append(run_pass(ops, speed, recorder if traced else None,
                                       f"pass{len(passes)}", targets))
    passes = [p for p in passes if p.attempted]
    for p in passes:
        p.factors = [w and speed.around(*w) for w in p.windows]
    return passes


def nearest_rank(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ----------------------------------------------------------------------
# metrics


def op_times(passes: list[Pass]) -> list[float | None]:
    """Median calibrated time of each op over the passes that ran it."""
    out = []
    for i in range(len(passes[0].times)):
        ts = [p.times[i] / p.factors[i] for p in passes if p.times[i] is not None]
        out.append(statistics.median(ts) if ts else None)
    return out


def pass_speed(p: Pass) -> float:
    factors = [f for f in p.factors if f is not None]
    return statistics.median(factors) if factors else 1.0


def end_to_end(passes: list[Pass], ops, setup_s: float, engine_tags) -> dict:
    per_op = op_times(passes)
    counts = [next((p.counts[i] for p in passes if p.times[i] is not None), {})
              for i in range(len(ops))]
    latencies = [t for t in per_op if t is not None]
    engine = [i for i, op in enumerate(ops)
              if op.tag in engine_tags and per_op[i] is not None]
    engine_time = sum(per_op[i] for i in engine)
    return {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "nodes_per_s": ratio(sum(counts[i].get("nodes", 0) for i in engine), engine_time),
        "solutions_per_s": ratio(sum(counts[i].get("solutions", 0) for i in engine),
                                 engine_time),
        "call_p50_ms": nearest_rank(latencies, 0.50) * 1e3,
        "call_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pass_layer_metrics(p: Pass) -> dict:
    """Per-layer values of one traced pass."""
    c, tt, sp = p.counters, p.tag_time, p.spans
    fixed_t = tt["count_fixed"] + tt["collect_fixed"]
    random_t = tt["count_random"] + tt["collect_random"] + tt["psi_engine"]
    engine_t = fixed_t + random_t
    out = {
        "treesearch.count_fixed_s": tt["count_fixed"],
        "treesearch.count_random_s": tt["count_random"],
        "treesearch.collect_s": tt["collect_fixed"] + tt["collect_random"],
        "treesearch.ordering_cost": ratio(ratio(c["fixed.nodes"], fixed_t),
                                          ratio(c["random.nodes"], random_t)),
        "treesearch.survival_ratio": ratio(c["leaves"], c["nodes"]),
        "treesearch.skip_ratio": ratio(c["skips"], c["skips"] + c["nodes"]),
        "treesearch.nodes_visited.fixed": c["fixed.nodes_visited"],
        "treesearch.superfluous_skips.fixed": c["fixed.superfluous_skips"],
        "treesearch.leaves_visited.fixed": c["fixed.leaves_visited"],
        "treesearch.resets.base": c["resets.base"],
        "treesearch.resets.onemark": c["resets.onemark"],
        "treesearch.resets.twomark": c["resets.twomark"],
        "matching.attempt_reset.grown": sp["counters"].get("attempt_reset.grown", 0),
        "analysis.claim_points": c["claim_points"],
        "analysis.estimate_psi.tree.samples_per_s":
            ratio(c["psi.tree.samples"], tt["psi_tree"]),
        "analysis.estimate_psi.engine.samples_per_s":
            ratio(c["psi.engine.samples"], tt["psi_engine"]),
        "oracle.assignments_per_s": ratio(c["oracle.assignments"],
                                          sp["s"].get("oracle.brute_force", 0.0)),
    }
    for metric, (span, kind) in SPAN_METRICS.items():
        out[metric] = sp[kind].get(span, 0)
    out["selection.build_stage_profile.share"] = ratio(
        out["selection.build_stage_profile.s"], engine_t)
    for layer in ("cnf", "generators", "matching", "selection", "treesearch",
                  "tree", "oracle", "analysis"):
        out[f"{layer}.self_s"] = sp["self_s"].get(layer, 0.0)
    return calibrated(out, pass_speed(p))


def calibrated(metrics: dict, factor: float) -> dict:
    """Scale times and rates measured at speed ``factor`` to the reference."""
    scale = {"s": 1 / factor, "1/s": factor}
    return {k: v * scale.get(PER_LAYER_UNITS[k], 1) for k, v in metrics.items()}


def absent_metrics(absent: list[str], targets) -> list[str]:
    """Span metrics none of whose bindings could be rebound."""
    by_span: dict[str, list[str]] = {}
    for module, attr, span, _ in targets:
        by_span.setdefault(span, []).append(f"{module}.{attr}")
    gone = {span for span, binds in by_span.items() if all(b in absent for b in binds)}
    out = [m for m, (span, _) in SPAN_METRICS.items() if span in gone]
    if "matching.attempt_reset" in gone:
        out.append("matching.attempt_reset.grown")
    if "selection.build_stage_profile" in gone:
        out.append("selection.build_stage_profile.share")
    return out


def per_layer(passes: list[Pass], setup_aggs: list[dict], probe,
              targets) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    rows = [pass_layer_metrics(p) for p in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["generators.s"] = statistics.median(
        sum(v for k, v in a["s"].items() if k.startswith("generators.")) / f
        for a, f in setup_aggs)
    out["cnf.negation_closure_s"] = statistics.median(
        a["s"].get("cnf.negation_closure", 0.0) / f for a, f in setup_aggs)
    out["trace.overhead"] = (sum(filter(None, op_times(traced)))
                             / sum(filter(None, op_times(untraced))) - 1)
    for name in ("treesearch.parallel2_speedup", "treesearch.count_peak_bytes",
                 "treesearch.count_bytes_per_solution"):
        out[name] = 0
    out.update(probe.metrics)
    absent = sorted(set(absent_metrics(traced[0].spans["absent"], targets))
                    | set(probe.absent))
    for name in absent:
        out.pop(name, None)
    return out, absent


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    setup_s = measure_setup(args) if args.trace == 0 else None

    import workloads
    from spans import Recorder

    workload = workloads.WORKLOADS[args.workload]
    recorder = Recorder() if args.trace else None
    setup_aggs = []
    if recorder is not None:
        from spans import Rebind

        for k in range(SETUP_PROBES):
            recorder.run_id = f"setup{k}"
            before = calibrate.sample()
            with Rebind(recorder, workloads.SETUP_TARGETS):
                inputs = workload.build(args.seed, args.scale, recorder.call)
            setup_aggs.append((recorder.aggregate(recorder.run_id),
                               (before + calibrate.sample()) / 2))
    else:
        inputs = workload.build(args.seed, args.scale, workloads.direct)
    ops = workload.prepare(inputs, args.seed, args.scale)

    passes = measure(ops, args.seconds, recorder, workloads.PASS_TARGETS)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]

    if recorder is None:
        metrics = end_to_end(passes, ops, setup_s, workloads.ENGINE_TAGS)
        units = END_TO_END_UNITS
        absent: list[str] = []
    else:
        probe = workload.probe(inputs) if workload.probe else workloads.Probe()
        attempted += probe.attempted
        failures += probe.failures
        metrics, absent = per_layer(passes, setup_aggs, probe,
                                    workloads.PASS_TARGETS)
        units = PER_LAYER_UNITS
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.dump(path)
        print(f"# spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")

    for message in failures:
        print(f"# FAILED {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{len(ops)} calls per pass, {attempted} attempted, "
          f"{len(failures)} failed, error_rate={len(failures) / attempted:g}, "
          f"median speed factor {statistics.median(pass_speed(p) for p in passes):.3f}")
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {units[name]}")
    if absent:
        print(f"#   absent: {', '.join(absent)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
