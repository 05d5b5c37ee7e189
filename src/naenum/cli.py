"""Command-line front end.

Machine-readable JSON goes to stdout (one document, last line); human logs go
to stderr.  Solution lines precede the JSON unless routed to a file with
``--solutions``.  Exit codes: 0 success, 1 internal invariant failure,
2 weight-precondition violation, 3 malformed input, 4 refused parameters or
a run out of memory, 5 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis
from .cnf import Formula, negation_closure, parse_dimacs
from .errors import (BudgetExceeded, DimacsError, InputNotClosed,
                     InternalInvariantError, OracleRefused, ParameterError,
                     PreconditionViolated, TautologyError, WidthError)
from .generators import GenSpec, ksat_to_naesat, maj, random_negation_closed
from .oracle import brute_force, nae_oracle_cross_check, verify_enumeration
from .tree import check_invariants, export_lines
from .treesearch import (OrderingSource, build_debug_tree, collect_solutions,
                         count_solutions, enumerate_all_orderings)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(4)


def _emit_json(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_formula(path: str) -> Formula:
    if path == "-":
        return parse_dimacs(sys.stdin.read())
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read())


def _resolve_t(args, f: Formula) -> int:
    if args.t == "auto":
        rep = brute_force(f)
        if rep.tau is None:
            raise ParameterError("formula unsatisfiable; no weight to infer")
        _log(f"t=auto resolved to {rep.tau}")
        return rep.tau
    try:
        return int(args.t)
    except ValueError:
        raise ParameterError(f"--t expects an integer or 'auto', got {args.t!r}")


def _sol_line(sol: tuple[int, ...], n: int, bitstring: bool) -> str:
    if bitstring:
        bits = ["0"] * n
        for v in sol:
            bits[v - 1] = "1"
        return "".join(bits)
    return " ".join(str(v) for v in sol)


def _read_solutions(path: str, n: int) -> list[tuple[int, ...]]:
    """The solutions of a file of either format ``_sol_line`` writes, read
    as bytes, one a line.  One token of exactly n characters from {0,1} is a
    bitstring: read as a variable index, it would exceed n when n >= 2, and
    at n = 1 both readings agree.  The empty line is the empty solution."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    sols = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.decode("ascii", errors="replace").split()
        if len(tokens) == 1 and len(tokens[0]) == n and set(tokens[0]) <= {"0", "1"}:
            tokens = [str(i) for i, bit in enumerate(tokens[0], start=1) if bit == "1"]
        for tok in tokens:
            if not (tok.isdigit() and 1 <= int(tok) <= n):
                raise DimacsError(f"token {tok!r} is not a variable of 1..{n}", lineno)
        sols.append(tuple(map(int, tokens)))
    return sols


def cmd_gen(args) -> int:
    if args.family == "maj":
        f = maj(args.n, args.k)
        spec = GenSpec("maj", args.n, args.k)
    elif args.family == "random":
        if args.m is None:
            raise ParameterError("--m required for the random family")
        f = random_negation_closed(args.n, args.m, args.seed)
        spec = GenSpec("random", args.n, 3, args.m, args.seed)
    else:                            # argparse allows only the three families
        if not args.input:
            raise ParameterError("--input required for the reduction family")
        f = ksat_to_naesat(_read_formula(args.input))
        spec = GenSpec("reduction", f.n)
    if args.closure:
        f = negation_closure(f)
    text = f.to_dimacs([spec.comment()])
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        _log(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_enumerate(args) -> int:
    if args.parallel < 1:       # refused in every mode, not only the search
        raise ParameterError(f"parallel={args.parallel} is below 1")
    what = ("--exhaustive-orderings" if args.exhaustive_orderings
            else f"--mode {args.mode}")
    if args.parallel != 1 and (args.mode == "psi" or args.exhaustive_orderings):
        raise ParameterError(f"{what} searches in one process; "
                             f"parallel={args.parallel} is not 1")
    # an option the chosen mode does not read is refused, not dropped; the
    # defaults of --budget, --samples and --psi-method apply where read
    solve = not args.exhaustive_orderings and args.mode == "enumerate"
    psi = not args.exhaustive_orderings and args.mode == "psi"
    for opt, given, used, why, where in (
            ("--solutions", args.solutions, solve, "writes no solutions",
             "--mode enumerate"),
            ("--bitstring", args.bitstring, solve, "writes no solutions",
             "--mode enumerate"),
            ("--seed", args.seed is not None, not args.exhaustive_orderings,
             "sweeps every ordering", "a seeded search or --mode psi"),
            ("--budget", args.budget is not None, args.exhaustive_orderings,
             "sweeps no orderings", "--exhaustive-orderings"),
            ("--samples", args.samples is not None, psi, "estimates no psi",
             "--mode psi"),
            ("--psi-method", args.psi_method, psi, "estimates no psi",
             "--mode psi")):
        if given and not used:
            raise ParameterError(f"{what} {why}; {opt} is for {where}")
    f = _read_formula(args.file)
    if args.closure:
        f = negation_closure(f)
    t = _resolve_t(args, f)
    ordering = (OrderingSource.random(args.seed) if args.seed is not None
                else OrderingSource.fixed())

    doc: dict = {"command": "enumerate", "mode": args.mode, "n": f.n,
                 "m": len(f.clauses), "t": t,
                 "seed": args.seed, "parallel": args.parallel}

    if args.debug_tree:
        tree = build_debug_tree(f, t)
        with open(args.debug_tree, "w", encoding="ascii") as fh:
            fh.write("\n".join(export_lines(tree)) + "\n")
        doc["debug_tree"] = {"path": args.debug_tree,
                            "nodes": len(tree.nodes),
                            "invariant_violations": check_invariants(tree)}

    if args.exhaustive_orderings:
        report = enumerate_all_orderings(
            f, t, budget=10 ** 6 if args.budget is None else args.budget)
        exact_edges = all(report.edge_survival[v.id] == Fraction(1, 2 ** v.marks)
                          for v in report.tree.nodes[1:] if not v.falsifying)
        doc["exhaustive"] = {
            "orderings": report.orderings,
            "mean_surviving": str(report.mean_surviving),
            "mean_surviving_float": float(report.mean_surviving),
            "predicted_psi": str(report.predicted_psi),
            "mean_matches_prediction": report.mean_surviving == report.predicted_psi,
            "edge_survival_exact": exact_edges}
        _emit_json(doc)
        return 0

    if args.mode == "psi":
        est = analysis.estimate_psi(
            f, t, 10 ** 4 if args.samples is None else args.samples,
            args.seed or 0, method=args.psi_method or "auto")
        doc["psi"] = est.as_dict()
        _emit_json(doc)
        return 0

    search = collect_solutions if args.mode == "enumerate" else count_solutions
    sols, stats = search(f, t, ordering, parallel=args.parallel)
    doc["stats"] = stats.as_dict()
    if args.mode == "enumerate":
        lines = [_sol_line(s, f.n, args.bitstring) for s in sols]
        if args.solutions:
            with open(args.solutions, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
            doc["solutions_file"] = args.solutions
        else:
            for line in lines:
                sys.stdout.write(line + "\n")
    doc["count"] = stats.solutions_emitted
    _emit_json(doc)
    return 0


def cmd_verify(args) -> int:
    f = _read_formula(args.file)
    if args.closure:
        f = negation_closure(f)
    doc: dict = {"command": "verify", "n": f.n}
    if args.nae:
        t = _resolve_t(args, negation_closure(f))
        ok = nae_oracle_cross_check(f, t)
        doc.update({"mode": "nae-cross-check", "t": t, "passed": ok})
        _emit_json(doc)
        return 0 if ok else 5
    t = _resolve_t(args, f)
    if args.solutions:
        emitted = _read_solutions(args.solutions, f.n)
    else:
        emitted, _ = collect_solutions(
            f, t, OrderingSource.random(args.seed) if args.seed is not None
            else OrderingSource.fixed())
    rep = verify_enumeration(f, t, emitted)
    doc.update({"mode": "solutions" if args.solutions else "engine",
                "t": t, "passed": rep.passed,
                "first_mismatch": rep.first_mismatch(),
                "duplicates": len(rep.duplicates),
                "missing": len(rep.missing),
                "unexpected": len(rep.unexpected)})
    _emit_json(doc)
    return 0 if rep.passed else 5


def cmd_bound(args) -> int:
    doc: dict = {"command": "bound"}
    did = False
    if (args.verify_claims or args.dump_tables) and args.grid < 0:
        raise ParameterError(f"--grid must be nonnegative, got {args.grid}")
    if args.f_large:
        w, d = args.f_large
        v = analysis.f_large(w, d)
        doc["f_large"] = {"w": w, "d": d, "value": str(v), "float": float(v)}
        did = True
    if args.f_small:
        w, d, h = args.f_small
        v = analysis.f_small(w, d, h)
        doc["f_small"] = {"w": w, "d": d, "h": h, "value": v.as_json(),
                          "float": float(v)}
        did = True
    if args.profile:
        if args.n is None:
            raise ParameterError("--profile requires --n")
        parts = [int(x) for x in args.profile.split(",")]
        if len(parts) != 4:
            raise ParameterError("--profile expects t0,t1,mR',mB")
        cert = analysis.n_of_u0(args.n, *parts)
        doc["certificate"] = cert.as_dict()
        doc["certificate"]["scaled"] = cert.scaled().as_json()
        doc["certificate"]["within_bound"] = bool(
            cert.scaled() <= analysis.QSqrt6(Fraction(6) ** (args.n // 4)))
        did = True
    if args.verify_claims:
        g = args.grid
        g3 = (2 * g) // 3
        rep = analysis.verify_appendix_claims(
            grid2_w=(-3, 2 * g), grid2_d=g,
            grid3_w=(-3, 2 * g3), grid3_d=g3, grid3_h=g3)
        doc["claims"] = rep.as_dict()
        did = True
    if args.global_sweep:
        doc["global"] = analysis.global_bound_check().as_dict()
        did = True
    if args.dump_tables:
        g = args.grid
        g3 = (2 * g) // 3
        large = analysis.dp_m_large(2 * g, g)
        small = analysis.dp_m_small(2 * g3, g3, g3)
        for suffix, table in (("large", large), ("small", small)):
            path = f"{args.dump_tables}.{suffix}.csv"
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(table.csv_lines()) + "\n")
            _log(f"wrote {path}")
        doc["tables"] = {"prefix": args.dump_tables}
        did = True
    if not did:
        raise ParameterError("bound: nothing requested")
    ok = all(doc.get(k, {}).get("ok", True) for k in ("claims", "global")) \
        and doc.get("certificate", {}).get("within_bound", True)
    _emit_json(doc)
    return 0 if ok else 5


def build_parser() -> _Parser:
    p = _Parser(prog="naenum",
                description="Minimum-weight not-all-equal solution enumeration "
                            "for 3-CNF formulas, with exact bound checkers")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate instances")
    g.add_argument("--family", required=True,
                   choices=["maj", "random", "reduction"])
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--k", type=int, default=3)
    g.add_argument("--m", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--input", help="input DIMACS for the reduction family")
    g.add_argument("--closure", action="store_true",
                   help="negation-close before writing")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("enumerate", help="run the tree search")
    e.add_argument("file", help="DIMACS file, '-' for stdin")
    e.add_argument("--t", required=True, help="target weight, or 'auto'")
    e.add_argument("--seed", type=int, help="random sibling orderings")
    e.add_argument("--mode", choices=["enumerate", "count", "psi"],
                   default="enumerate")
    e.add_argument("--closure", action="store_true",
                   help="negation-close the input first")
    e.add_argument("--solutions", help="write solutions here instead of stdout")
    e.add_argument("--bitstring", action="store_true")
    e.add_argument("--exhaustive-orderings", action="store_true")
    e.add_argument("--budget", type=int,
                   help="most orderings to sweep (default 10^6)")
    e.add_argument("--samples", type=int, help="psi samples (default 10^4)")
    e.add_argument("--psi-method", choices=["auto", "tree", "engine"],
                   help="psi estimator (default auto)")
    e.add_argument("--debug-tree", help="write the materialized tree here")
    e.add_argument("--parallel", type=int, default=1)
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="cross-check against the brute-force oracle")
    v.add_argument("file")
    v.add_argument("--t", default="auto")
    v.add_argument("--seed", type=int)
    v.add_argument("--closure", action="store_true")
    v.add_argument("--solutions", help="verify this solution file instead of running")
    v.add_argument("--nae", action="store_true",
                   help="check pre-closure NAE semantics against the closure")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bound", help="exact bound calculators and claim grids")
    b.add_argument("--f-large", nargs=2, type=int, metavar=("W", "D"))
    b.add_argument("--f-small", nargs=3, type=int, metavar=("W", "D", "H"))
    b.add_argument("--n", type=int)
    b.add_argument("--profile", help="t0,t1,mR',mB")
    b.add_argument("--verify-claims", action="store_true")
    b.add_argument("--global-sweep", action="store_true")
    b.add_argument("--grid", type=int, default=30)
    b.add_argument("--dump-tables", help="CSV path prefix")
    b.set_defaults(func=cmd_bound)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DimacsError, WidthError, TautologyError) as exc:
        _log(f"input error: {exc}")
        return 3
    except PreconditionViolated as exc:
        _log(f"precondition violated: {exc}")
        return 2
    except (ParameterError, OracleRefused, InputNotClosed, BudgetExceeded,
            ValueError, OSError) as exc:
        _log(f"refused: {exc}")
        return 4
    except MemoryError:
        _log("refused: out of memory")
        return 4
    except KeyboardInterrupt:
        _log("interrupted")
        return 130
    except InternalInvariantError as exc:
        _log(f"internal invariant failure: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
