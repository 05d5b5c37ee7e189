"""The benchmark's three workloads.

Each workload has three parts:

* ``build(seed, scale, call)`` makes the inputs through ``naenum.generators``
  and ``negation_closure``.  This is the part timed as set-up.
* ``prepare(inputs, seed, scale)`` computes reference answers (oracle sets,
  engine counts) outside any timed region and returns the operations of one
  pass: a call of a public entry point plus the check of its result.
* ``probe(inputs)`` (optional) runs the extra measurements of the traced run.

``call(span, fn, *args)`` is either :func:`direct` or ``Recorder.call``, so the
same code builds inputs with and without spans.
"""

from __future__ import annotations

import inspect
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import naenum as ne
from naenum import analysis

# The hand-built reset instances of the test corpus, as (n, clauses) before
# negation closure.  In the first, two once-marked clauses land on both free
# variables of base level 0 and get swapped in for the base clause; in the
# second, a twice-marked clause forces a 1-for-2 base swap.
COLLISION_RESET = (8, ((1, 2, 3), (2, 4, 5), (3, 6, 7)))
STRUCTURE_RESET = (12, ((1, 8, 9), (2, 3, 8), (4, 10, 11), (5, 6, 10), (5, 7, 9)))

# Op tags whose calls run the pruned engine; nodes_per_s divides by their time.
ENGINE_TAGS = ("count_fixed", "count_random", "collect_fixed", "collect_random",
               "psi_engine")


def direct(_span: str, fn, *args, **kw):
    """Untraced call hook, with the signature of ``Recorder.call``."""
    return fn(*args, **kw)


@dataclass
class Op:
    """One timed call of a public entry point and the check of its result."""

    span: str                                   # "<layer>.<function>"
    tag: str                                    # groups times into metrics
    fn: Callable[[], Any]
    check: Callable[[Any], str | None]          # failure message, or None
    account: Callable[[Any], dict] = lambda _result: {}   # counters it adds


@dataclass
class Probe:
    """Result of the traced-only extra measurements."""

    metrics: dict = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _seed(seed: int, *salt: int) -> int:
    """Derived stream seed: distinct per (seed, salt), stable across runs."""
    out = seed
    for s in salt:
        out = out * 1_000_003 + s
    return out


def _closed(call, n: int, clauses) -> ne.Formula:
    return call("cnf.negation_closure", ne.negation_closure, ne.Formula.of(n, clauses))


def _maj(call, n: int) -> ne.Formula:
    return call("cnf.negation_closure", ne.negation_closure,
                call("generators.maj", ne.maj, n, 3))


def _engine_counts(stats: ne.SearchStats, fixed: bool, collect: bool) -> dict:
    out = {"nodes": stats.nodes_visited, "leaves": stats.leaves_visited,
           "skips": stats.superfluous_skips,
           "solutions": stats.solutions_emitted,
           ("fixed.nodes" if fixed else "random.nodes"): stats.nodes_visited}
    for stage, k in stats.resets.items():
        out[f"resets.{stage}"] = k
    if fixed and collect:
        out["fixed.nodes_visited"] = stats.nodes_visited
        out["fixed.superfluous_skips"] = stats.superfluous_skips
        out["fixed.leaves_visited"] = stats.leaves_visited
    return out


def engine_op(mode: str, f: ne.Formula, t: int, ordering: ne.OrderingSource,
              check: Callable[[Any], str | None]) -> Op:
    fixed = ordering.kind == "fixed"
    entry = ne.count_solutions if mode == "count" else ne.collect_solutions
    return Op(f"treesearch.{entry.__name__}",
              f"{mode}_{'fixed' if fixed else 'random'}",
              lambda: entry(f, t, ordering), check,
              lambda r: _engine_counts(r[1], fixed, mode == "collect"))


def _orderings(seed: int, salt: int, randoms: int) -> list[ne.OrderingSource]:
    return [ne.OrderingSource.fixed()] + [
        ne.OrderingSource.random(_seed(seed, salt, k)) for k in range(randoms)]


class SolutionCheck:
    """Checks a collected solution list without the engine or the oracle:
    every clause is evaluated on bitmasks.  The first accepted set becomes the
    reference the later orderings must reproduce."""

    def __init__(self, f: ne.Formula, t: int, count: int) -> None:
        if f.n > 63:
            raise ValueError("bitmask check needs n <= 63")
        self.t = t
        self.count = count
        self.pos = np.zeros(len(f.clauses), dtype=np.uint64)
        self.neg = np.zeros(len(f.clauses), dtype=np.uint64)
        for i, c in enumerate(f.clauses):
            for lit in c:
                bit = np.uint64(1 << (abs(lit) - 1))
                if lit > 0:
                    self.pos[i] |= bit
                else:
                    self.neg[i] |= bit
        self.reference: np.ndarray | None = None

    def __call__(self, result) -> str | None:
        sols, stats = result
        if len(sols) != self.count or stats.solutions_emitted != self.count:
            return f"{len(sols)} solutions, expected {self.count}"
        if any(len(set(s)) != self.t for s in sols):
            return f"a solution does not have weight {self.t}"
        masks = np.fromiter((sum(1 << (v - 1) for v in s) for s in sols),
                            dtype=np.uint64, count=len(sols))
        masks.sort()
        if np.any(masks[1:] == masks[:-1]):
            return "a solution was emitted twice"
        for p, q in zip(self.pos, self.neg):
            if not np.all(((masks & p) != 0) | ((~masks & q) != 0)):
                return "a solution falsifies a clause of the closure"
        if self.reference is None:
            self.reference = masks
        elif not np.array_equal(masks, self.reference):
            return "solution set differs across orderings"
        return None


# ----------------------------------------------------------------------
# maj-extremal


@dataclass
class MajInputs:
    f: ne.Formula
    t: int
    expect: int


def build_maj(seed: int, scale: str, call) -> MajInputs:
    n = 24 if scale == "full" else 8
    return MajInputs(_maj(call, n), n // 2, 6 ** (n // 4))


def ops_maj(inp: MajInputs, seed: int, scale: str) -> list[Op]:
    def check_count(result) -> str | None:
        count, stats = result
        if count != inp.expect:
            return f"count {count}, expected {inp.expect}"
        return None

    collect_check = SolutionCheck(inp.f, inp.t, inp.expect)
    ops = []
    for mode, salt in (("count", 1), ("collect", 2)):
        check = check_count if mode == "count" else collect_check
        for ordering in _orderings(seed, salt, randoms=2):
            ops.append(engine_op(mode, inp.f, inp.t, ordering, check))
    return ops


def probe_maj(inp: MajInputs) -> Probe:
    """Two-worker speed-up of ``parallel=2`` and the tracemalloc peak of
    count mode, both on the largest instance."""
    probe = Probe()
    if "parallel" in inspect.signature(ne.enumerate_solutions).parameters:
        seq, par = [], []
        for _ in range(2):
            for workers, times in ((1, seq), (2, par)):
                start = time.perf_counter()
                count, _ = ne.count_solutions(inp.f, inp.t, parallel=workers)
                times.append(time.perf_counter() - start)
                probe.expect(count == inp.expect,
                             f"parallel={workers} counted {count}, expected {inp.expect}")
        probe.metrics["treesearch.parallel2_speedup"] = min(seq) / min(par)
    else:                               # the parallel mode was removed
        probe.absent.append("treesearch.parallel2_speedup")
    tracemalloc.start()
    try:
        count, _ = ne.count_solutions(inp.f, inp.t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    probe.expect(count == inp.expect, f"traced count {count}, expected {inp.expect}")
    probe.metrics["treesearch.count_peak_bytes"] = peak
    probe.metrics["treesearch.count_bytes_per_solution"] = peak / max(count, 1)
    return probe


# ----------------------------------------------------------------------
# random-corpus


# Random instances are drawn from a fixed seed; the run's seed draws the
# random orderings and psi-estimate seeds.  At 400 instances, corpora drawn
# from different seeds differ in total cost by up to 25%, which would swamp
# any change to the engine.
CORPUS_SEED = 1000


def build_corpus(seed: int, scale: str, call) -> list[ne.Formula]:
    count, n_lo, n_hi = (400, 10, 20) if scale == "full" else (12, 6, 9)
    out = []
    for s in range(count):
        n = n_lo + s % (n_hi - n_lo + 1)
        m = 3 + (s * 7) % (n - 2)          # cycles over 3..n
        out.append(call("generators.random_negation_closed",
                        ne.random_negation_closed, n, m, _seed(CORPUS_SEED, s)))
    out.append(_closed(call, *COLLISION_RESET))
    out.append(_closed(call, *STRUCTURE_RESET))
    return out


def ops_corpus(formulas: list[ne.Formula], seed: int, scale: str) -> list[Op]:
    ops = []
    for i, f in enumerate(formulas):
        rep = ne.brute_force(f)
        if rep.tau is None:
            continue
        expect = list(rep.gamma)            # the weight-tau solutions

        def check(result, expect=expect) -> str | None:
            sols, _ = result
            if sorted(sols) != expect or len(set(sols)) != len(sols):
                return f"{len(sols)} solutions differ from the oracle's {len(expect)}"
            return None

        for ordering in _orderings(seed, 1_000 + i, randoms=2):
            ops.append(engine_op("collect", f, rep.tau, ordering, check))
    return ops


# ----------------------------------------------------------------------
# certify


@dataclass
class CertifyInputs:
    maj_psi: ne.Formula          # estimate_psi, both methods
    maj_tree: ne.Formula         # debug tree, invariants, psi_exact
    maj4: ne.Formula             # exhaustive orderings
    maj_raw: ne.Formula          # brute force, not closed
    tiny: list[ne.Formula]       # exhaustive-ordering candidates
    resets: list[ne.Formula]


CERTIFY = {
    "full": dict(claims={}, bounds={}, psi_n=16, tree_samples=2000,
                 engine_samples=30, tree_n=16, brute_n=24, tiny=6),
    "tiny": dict(claims=dict(grid2_w=(-3, 12), grid2_d=6, grid3_w=(-3, 8),
                             grid3_d=4, grid3_h=4),
                 bounds=dict(ns_large=(8, 12), ns_controlled=(8,)),
                 psi_n=8, tree_samples=200, engine_samples=3, tree_n=8,
                 brute_n=8, tiny=2),
}
EXHAUSTIVE_BUDGET = 10_000


def build_certify(seed: int, scale: str, call) -> CertifyInputs:
    cfg = CERTIFY[scale]
    tiny = [call("generators.random_negation_closed", ne.random_negation_closed,
                 4 + s % 4, 2 + s % 4, _seed(CORPUS_SEED, 7, s))
            for s in range(8 * cfg["tiny"])]
    return CertifyInputs(
        maj_psi=_maj(call, cfg["psi_n"]), maj_tree=_maj(call, cfg["tree_n"]),
        maj4=_maj(call, 4),
        maj_raw=call("generators.maj", ne.maj, cfg["brute_n"], 3),
        tiny=tiny,
        resets=[_closed(call, *COLLISION_RESET), _closed(call, *STRUCTURE_RESET)])


def _bound(n: int) -> int:
    return 6 ** (n // 4)


def ops_certify(inp: CertifyInputs, seed: int, scale: str) -> list[Op]:
    cfg = CERTIFY[scale]
    ops = [
        Op("analysis.verify_appendix_claims", "claims",
           lambda: analysis.verify_appendix_claims(**cfg["claims"]),
           lambda rep: None if rep.ok else "appendix claim failed: " + ", ".join(
               c.name for c in rep.checks if not c.ok),
           lambda rep: {"claim_points": sum(c.points for c in rep.checks)}),
        Op("analysis.global_bound_check", "bounds",
           lambda: analysis.global_bound_check(**cfg["bounds"]),
           lambda rep: None if rep.ok else "global bound sweep failed"),
    ]

    f, n = inp.maj_psi, inp.maj_psi.n

    def psi_check(est) -> str | None:
        if est.mean > _bound(n) + 3 * est.std_error:
            return f"psi {est.mean} above 6^(n/4) + 3 standard errors"
        return None

    tree_seed = _seed(seed, 11)
    ops.append(Op("analysis.estimate_psi", "psi_tree",
                  lambda: analysis.estimate_psi(f, n // 2, cfg["tree_samples"],
                                                tree_seed, "tree"),
                  psi_check, lambda est: {"psi.tree.samples": est.samples}))

    # the engine method reruns the search per ordering seed; its per-seed
    # counts are fixed by the seed, so they are computed here once
    engine_seed = _seed(seed, 12)
    runs = [ne.enumerate_solutions(f, n // 2, ne.OrderingSource.random(engine_seed + k),
                                   debug_assertions=False)
            for k in range(cfg["engine_samples"])]
    engine_counts = {"psi.engine.samples": len(runs),
                     "nodes": sum(s.nodes_visited for s in runs),
                     "random.nodes": sum(s.nodes_visited for s in runs),
                     "leaves": sum(s.leaves_visited for s in runs),
                     "skips": sum(s.superfluous_skips for s in runs),
                     "solutions": sum(s.solutions_emitted for s in runs)}
    engine_mean = engine_counts["leaves"] / len(runs)

    def engine_check(est) -> str | None:
        if abs(est.mean - engine_mean) > 1e-9:
            return f"engine psi mean {est.mean}, expected {engine_mean}"
        return psi_check(est)

    ops.append(Op("analysis.estimate_psi", "psi_engine",
                  lambda: analysis.estimate_psi(f, n // 2, cfg["engine_samples"],
                                                engine_seed, "engine"),
                  engine_check, lambda _est: engine_counts))

    def exhaustive_check(rep) -> str | None:
        if rep.mean_surviving != rep.predicted_psi:
            return f"exhaustive mean {rep.mean_surviving} != psi {rep.predicted_psi}"
        return None

    exhaustive = [(inp.maj4, 2)]
    for g in inp.tiny:
        if len(exhaustive) > cfg["tiny"]:
            break
        tau = ne.brute_force(g).tau
        if tau is None:
            continue
        try:
            report = ne.enumerate_all_orderings(g, tau, budget=EXHAUSTIVE_BUDGET)
        except ne.BudgetExceeded:
            continue
        if report.orderings > 6:        # skip trees with at most one branching node
            exhaustive.append((g, tau))
    for g, tau in exhaustive:
        ops.append(Op("treesearch.enumerate_all_orderings", "exhaustive",
                      lambda g=g, tau=tau: ne.enumerate_all_orderings(
                          g, tau, budget=EXHAUSTIVE_BUDGET),
                      exhaustive_check))

    trees = [(inp.maj_tree, inp.maj_tree.n // 2, True)]
    trees += [(g, ne.brute_force(g).tau, False) for g in inp.resets]
    for g, tau, extremal in trees:
        state: dict = {}

        def build(g=g, tau=tau, state=state):
            state["tree"] = ne.build_debug_tree(g, tau)
            return state["tree"]

        def psi_exact_check(psi, n=g.n, extremal=extremal) -> str | None:
            if extremal and psi != _bound(n):
                return f"psi_exact {psi} != 6^(n/4) on an extremal instance"
            if psi > _bound(n):
                return f"psi_exact {psi} above 6^(n/4)"
            return None

        ops.append(Op("treesearch.build_debug_tree", "debug_tree", build,
                      lambda tree: None if tree.nodes else "empty debug tree"))
        ops.append(Op("tree.check_invariants", "invariants",
                      lambda state=state: ne.check_invariants(state["tree"]),
                      lambda bad: "; ".join(bad[:3]) or None))
        ops.append(Op("tree.psi_exact", "psi_exact",
                      lambda state=state: ne.psi_exact(state.pop("tree")),
                      psi_exact_check))

    g = inp.maj_raw
    tau_expect, count_expect = g.n // 2, _bound(g.n)

    def brute_check(rep) -> str | None:
        if rep.tau != tau_expect or len(rep.weight_t_solutions) != count_expect \
                or rep.gamma_count != count_expect:
            return (f"brute force: tau {rep.tau}, {len(rep.weight_t_solutions)} "
                    f"solutions; expected {tau_expect}, {count_expect}")
        return None

    ops.append(Op("oracle.brute_force", "brute_force",
                  lambda: ne.brute_force(g, tau_expect), brute_check,
                  lambda _rep: {"oracle.assignments": 1 << g.n}))
    return ops


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    prepare: Callable
    probe: Callable | None = None


WORKLOADS = {w.name: w for w in (
    Workload("maj-extremal", build_maj, ops_maj, probe_maj),
    Workload("random-corpus", build_corpus, ops_corpus),
    Workload("certify", build_certify, ops_certify),
)}


def _grown(recorder, event) -> None:
    if event is not None:
        recorder.count("attempt_reset.grown")


# (module, attribute, span, result hook) rebound during traced passes: the
# functions the engine and the analysis reach without the benchmark calling
# them.  Names are looked up in the module that calls them.
PASS_TARGETS = (
    ("naenum.treesearch", "validate_engine_input", "treesearch.validate_engine_input", None),
    ("naenum.treesearch", "is_negation_closed", "cnf.is_negation_closed", None),
    ("naenum.treesearch", "build_stage_profile", "selection.build_stage_profile", None),
    ("naenum.treesearch", "twomark_context", "selection.twomark_context", None),
    ("naenum.treesearch", "greedy_maximal", "matching.greedy_maximal", None),
    ("naenum.selection", "greedy_maximal", "matching.greedy_maximal", None),
    ("naenum.matching", "greedy_maximal", "matching.greedy_maximal", None),
    ("naenum.treesearch", "attempt_reset", "matching.attempt_reset", _grown),
    ("naenum.treesearch", "build_debug_tree", "treesearch.build_debug_tree", None),
    ("naenum.tree", "psi_exact", "tree.psi_exact", None),
    ("naenum.analysis", "dp_m_large", "analysis.dp_m_large", None),
    ("naenum.analysis", "dp_m_small", "analysis.dp_m_small", None),
)
SETUP_TARGETS = (
    ("naenum.generators", "negation_closure", "cnf.negation_closure", None),
)
