import io
import json
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from naenum import InternalInvariantError, is_negation_closed, parse_dimacs
from naenum import analysis, cli
from naenum.cli import main
from test_claims_differential import _changed_exponent, _doubled

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def maj4(tmp_path, capsys):
    path = tmp_path / "maj4.cnf"
    code, _, _ = run_cli(["gen", "--family", "maj", "--n", "4",
                          "-o", str(path)], capsys)
    assert code == 0
    return str(path)


def test_gen_writes_genspec_comment(maj4):
    text = Path(maj4).read_text()
    assert text.startswith("c naenum gen family=maj n=4")
    assert "p cnf 4 4" in text


def test_enumerate_solutions_and_stats(maj4, capsys):
    code, out, _ = run_cli(["enumerate", "--t", "2", "--closure", maj4], capsys)
    assert code == 0
    *sol_lines, stats_line = out.strip().splitlines()
    assert sol_lines == ["1 2", "1 3", "1 4", "2 3", "2 4", "3 4"]
    doc = json.loads(stats_line)
    assert doc["schema_version"] == 1
    assert doc["stats"]["solutions_emitted"] == 6


def test_enumerate_deterministic(maj4, capsys):
    a = run_cli(["enumerate", "--t", "2", "--seed", "7", "--closure", maj4], capsys)
    b = run_cli(["enumerate", "--t", "2", "--seed", "7", "--closure", maj4], capsys)
    assert a == b


def test_enumerate_golden_stats(maj4, capsys):
    code, out, _ = run_cli(["enumerate", "--t", "2", "--seed", "7", "--mode",
                            "count", "--closure", maj4], capsys)
    assert code == 0
    golden = json.loads((DATA / "maj4_count_seed7.json").read_text())
    assert json.loads(out.strip()) == golden


def test_enumerate_bitstring_and_solutions_file(maj4, tmp_path, capsys):
    sol = tmp_path / "sols.txt"
    code, out, _ = run_cli(["enumerate", "--t", "2", "--closure", "--bitstring",
                            "--solutions", str(sol), maj4], capsys)
    assert code == 0
    assert sol.read_text().splitlines()[0] == "1100"
    doc = json.loads(out.strip())
    assert doc["solutions_file"] == str(sol)


def test_enumerate_t_auto(maj4, capsys):
    code, out, err = run_cli(["enumerate", "--t", "auto", "--mode", "count",
                              "--closure", maj4], capsys)
    assert code == 0
    assert json.loads(out.strip())["t"] == 2
    assert "t=auto resolved to 2" in err


def test_enumerate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n3 0\n")
    code, _, err = run_cli(["enumerate", "--t", "1", str(bad)], capsys)
    assert code == 3 and "line 2" in err


def test_enumerate_width_error(tmp_path, capsys):
    wide = tmp_path / "wide.cnf"
    wide.write_text("p cnf 5 1\n1 2 3 4 0\n")
    code, _, err = run_cli(["enumerate", "--t", "2", str(wide)], capsys)
    assert code == 3


def test_enumerate_reads_a_file_with_a_utf8_comment(maj4, tmp_path, capsys):
    path = tmp_path / "comment.cnf"
    path.write_bytes("c généré\n".encode() + Path(maj4).read_bytes())
    code, out, _ = run_cli(["enumerate", "--t", "2", "--closure", "--mode",
                            "count", str(path)], capsys)
    assert code == 0 and json.loads(out)["count"] == 6


def test_enumerate_stray_byte_in_a_clause_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "stray.cnf"
    bad.write_bytes(b"p cnf 3 1\n1 \xff 2 3 0\n")
    code, _, err = run_cli(["enumerate", "--t", "1", str(bad)], capsys)
    assert code == 3 and "bad token" in err and "line 2" in err


def test_enumerate_precondition_exit(maj4, capsys):
    code, _, err = run_cli(["enumerate", "--t", "3", "--closure", maj4], capsys)
    assert code == 2


def test_enumerate_not_closed_refused(maj4, capsys):
    code, _, err = run_cli(["enumerate", "--t", "2", maj4], capsys)
    assert code == 4 and "negation-closed" in err


def test_enumerate_exhaustive_orderings(maj4, capsys):
    code, out, _ = run_cli(["enumerate", "--t", "2", "--closure",
                            "--exhaustive-orderings", maj4], capsys)
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["exhaustive"]["orderings"] == 1296
    assert doc["exhaustive"]["mean_surviving"] == "6"
    assert doc["exhaustive"]["mean_matches_prediction"] is True
    assert doc["exhaustive"]["edge_survival_exact"] is True


def test_enumerate_psi_mode(maj4, capsys):
    code, out, _ = run_cli(["enumerate", "--t", "2", "--closure", "--mode",
                            "psi", "--samples", "64", "--seed", "1", maj4], capsys)
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["psi"]["mean"] == 6.0


def test_enumerate_psi_mode_engine_matches_tree(maj4, capsys):
    # every sibling order of maj(4,3)'s closure at t=2 keeps its six
    # solutions, so both estimators read exactly 6 from every sample
    docs = {}
    for method in ("tree", "engine"):
        code, out, _ = run_cli(["enumerate", "--t", "2", "--closure", "--mode",
                                "psi", "--psi-method", method, "--samples", "16",
                                "--seed", "1", maj4], capsys)
        assert code == 0
        docs[method] = json.loads(out.strip())["psi"]
    assert docs["engine"]["method"] == "engine"
    assert docs["engine"]["mean"] == docs["tree"]["mean"] == 6.0


def test_enumerate_psi_mode_refuses_zero_samples(maj4, capsys):
    code, out, err = run_cli(["enumerate", "--t", "2", "--closure", "--mode",
                              "psi", "--samples", "0", maj4], capsys)
    assert code == 4 and "samples" in err
    assert "NaN" not in out


def test_enumerate_debug_tree(maj4, tmp_path, capsys):
    dump = tmp_path / "tree.txt"
    code, out, _ = run_cli(["enumerate", "--t", "2", "--closure", "--mode",
                            "count", "--debug-tree", str(dump), maj4], capsys)
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["debug_tree"]["invariant_violations"] == []
    assert len(dump.read_text().splitlines()) == doc["debug_tree"]["nodes"]


def test_enumerate_parallel(maj4, capsys):
    a = run_cli(["enumerate", "--t", "2", "--closure", "--seed", "3", maj4], capsys)
    b = run_cli(["enumerate", "--t", "2", "--closure", "--seed", "3",
                 "--parallel", "2", maj4], capsys)
    assert a[0] == b[0] == 0
    sa = json.loads(a[1].strip().splitlines()[-1])["stats"]
    sb = json.loads(b[1].strip().splitlines()[-1])["stats"]
    assert a[1].strip().splitlines()[:-1] == b[1].strip().splitlines()[:-1]
    for key in ("solutions_emitted", "nodes_visited", "superfluous_skips"):
        assert sa[key] == sb[key]


def test_enumerate_refuses_parallel_below_one(maj4, capsys):
    # in every mode, also those that never search with the parallel driver
    for mode in (["--mode", "count"], ["--mode", "psi"],
                 ["--exhaustive-orderings"]):
        for k in ("0", "-3"):
            code, out, err = run_cli(["enumerate", "--t", "2", "--closure",
                                      *mode, "--parallel", k, maj4], capsys)
            assert code == 4 and out == "" and f"parallel={k} is below 1" in err


def test_enumerate_refuses_parallel_where_it_takes_no_effect(maj4, capsys):
    # psi estimates and exhaustive orderings run in one process, so they
    # refuse a parallel setting that would not take effect
    for mode, what in ((["--mode", "psi"], "--mode psi"),
                       (["--exhaustive-orderings"], "--exhaustive-orderings")):
        code, out, err = run_cli(["enumerate", "--t", "2", "--closure",
                                  *mode, "--parallel", "2", maj4], capsys)
        assert code == 4 and out == ""
        assert f"{what} searches in one process; parallel=2 is not 1" in err


def test_enumerate_refuses_solutions_where_it_writes_nothing(maj4, tmp_path, capsys):
    # counts, psi estimates and exhaustive orderings emit no solution lines,
    # so a --solutions file would silently not be written
    sols = tmp_path / "out.txt"
    for mode, what in ((["--mode", "count"], "--mode count"),
                       (["--mode", "psi"], "--mode psi"),
                       (["--exhaustive-orderings"], "--exhaustive-orderings")):
        code, out, err = run_cli(["enumerate", "--t", "2", "--closure", *mode,
                                  "--solutions", str(sols), maj4], capsys)
        assert code == 4 and out == "" and not sols.exists()
        assert err == (f"refused: {what} writes no solutions; "
                       "--solutions is for --mode enumerate\n")


@pytest.mark.parametrize("mode, option, err", [
    (["--exhaustive-orderings"], ["--seed", "5"],
     "--exhaustive-orderings sweeps every ordering; --seed is for a seeded "
     "search or --mode psi"),
    (["--mode", "count"], ["--bitstring"],
     "--mode count writes no solutions; --bitstring is for --mode enumerate"),
    (["--mode", "enumerate"], ["--budget", "10"],
     "--mode enumerate sweeps no orderings; --budget is for "
     "--exhaustive-orderings"),
    (["--mode", "count"], ["--samples", "64"],
     "--mode count estimates no psi; --samples is for --mode psi"),
    (["--mode", "psi", "--exhaustive-orderings"], ["--psi-method", "tree"],
     "--exhaustive-orderings estimates no psi; --psi-method is for --mode psi"),
], ids=["seed", "bitstring", "budget", "samples", "psi-method"])
def test_enumerate_refuses_options_the_mode_does_not_read(maj4, mode, option,
                                                          err, capsys):
    # each option would be accepted and silently dropped; the refusal comes
    # before the formula is read
    code, out, got = run_cli(["enumerate", "--t", "2", "--closure", *mode,
                              *option, maj4], capsys)
    assert (code, out, got) == (4, "", f"refused: {err}\n")


def test_enumerate_reads_budget_where_it_sweeps(maj4, capsys):
    # the closure of maj(4,3) at t = 2 has 1,296 joint orderings
    code, out, err = run_cli(["enumerate", "--t", "2", "--closure",
                              "--exhaustive-orderings", "--budget", "1295",
                              maj4], capsys)
    assert (code, out) == (4, "") and "1296 orderings exceed budget 1295" in err


def test_verify_engine_pass(maj4, capsys):
    code, out, _ = run_cli(["verify", "--closure", maj4], capsys)
    assert code == 0 and json.loads(out.strip())["passed"] is True


def test_verify_solutions_file_mismatch(maj4, tmp_path, capsys):
    sols = tmp_path / "sols.txt"
    sols.write_text("1 2\n1 2\n1 3\n")
    code, out, _ = run_cli(["verify", "--closure", "--t", "2",
                            "--solutions", str(sols), maj4], capsys)
    assert code == 5
    doc = json.loads(out.strip())
    assert doc["duplicates"] == 1 and doc["missing"] == 4


def test_verify_reads_what_enumerate_writes(maj4, tmp_path, capsys):
    # the closure of maj(4,3) at t = 2, and the empty solution of a formula
    # without clauses at t = 0, round-trip through --solutions in both formats
    empty3 = tmp_path / "empty3.cnf"
    empty3.write_text("p cnf 3 0\n")
    sols = tmp_path / "sols.txt"
    for path, t, closure, bits, lines in (
            (maj4, 2, ["--closure"], [], ["1 2", "1 3", "1 4", "2 3", "2 4", "3 4"]),
            (maj4, 2, ["--closure"], ["--bitstring"],
             ["1100", "1010", "1001", "0110", "0101", "0011"]),
            (empty3, 0, [], [], [""]),
            (empty3, 0, [], ["--bitstring"], ["000"])):
        code, _, _ = run_cli(["enumerate", "--t", str(t), *closure, *bits,
                              "--solutions", str(sols), str(path)], capsys)
        assert code == 0 and sols.read_text().splitlines() == lines
        code, out, _ = run_cli(["verify", "--t", str(t), *closure,
                                "--solutions", str(sols), str(path)], capsys)
        doc = json.loads(out.strip())
        assert code == 0 and doc["passed"] is True, (path, bits, doc)


def test_verify_reads_bitstrings_and_empty_lines(maj4, tmp_path, capsys):
    # a wrong bitstring and a blank line (the empty solution) both count
    sols = tmp_path / "sols.txt"
    sols.write_text("1100\n1010\n1001\n0110\n0101\n0111\n\n")
    code, out, _ = run_cli(["verify", "--closure", "--t", "2",
                            "--solutions", str(sols), maj4], capsys)
    doc = json.loads(out.strip())
    assert code == 5
    assert (doc["missing"], doc["unexpected"], doc["duplicates"]) == (1, 2, 0)
    assert doc["first_mismatch"] == "missing: (3, 4)"


@pytest.mark.parametrize("body,message", [
    (b"1 2\nx y\n", "line 2: token 'x' is not a variable of 1..4"),
    (b"1 2\n1 \xc3\n", "line 2: token '\ufffd' is not a variable of 1..4"),
    (b"1 2\n1 3\n0 7\n", "line 3: token '0' is not a variable of 1..4"),
], ids=["not_an_integer", "not_ascii", "out_of_range"])
def test_verify_malformed_solutions_file_is_an_input_error(maj4, tmp_path, capsys,
                                                           body, message):
    # a token that is no integer, a byte that is no ASCII, and a variable
    # outside 1..n are malformed input (exit 3), not a refusal or a mismatch
    sols = tmp_path / "sols.txt"
    sols.write_bytes(body)
    code, out, err = run_cli(["verify", "--closure", "--t", "2",
                              "--solutions", str(sols), maj4], capsys)
    assert (code, out) == (3, "")
    assert err == f"input error: {message}\n"


def test_verify_nae(maj4, capsys):
    code, out, _ = run_cli(["verify", "--nae", maj4], capsys)
    assert code == 0 and json.loads(out.strip())["passed"] is True


def test_verify_nae_check_failure_exits_5(maj4, capsys, monkeypatch):
    import naenum.oracle as oracle

    monkeypatch.setattr(oracle, "nae_check", lambda f, s: s != (1, 2))
    code, out, _ = run_cli(["verify", "--nae", maj4], capsys)
    assert code == 5 and json.loads(out.strip())["passed"] is False


def test_bound_values(capsys):
    code, out, _ = run_cli(["bound", "--f-large", "2", "1"], capsys)
    assert code == 0
    assert json.loads(out.strip())["f_large"]["value"] == "2"

    code, out, _ = run_cli(["bound", "--f-small", "4", "2", "0"], capsys)
    assert json.loads(out.strip())["f_small"]["value"] == "27/8"


def test_bound_profile(capsys):
    code, out, _ = run_cli(["bound", "--n", "8", "--profile", "2,0,0,0"], capsys)
    assert code == 0
    cert = json.loads(out.strip())["certificate"]
    assert cert["N"] == "27/8" and cert["I"] == 6 and cert["within_bound"]


def test_bound_claims_small_grid(capsys):
    code, out, _ = run_cli(["bound", "--verify-claims", "--grid", "6"], capsys)
    assert code == 0
    assert json.loads(out.strip())["claims"]["ok"] is True


def test_bound_failing_claim_exits_5(capsys, monkeypatch):
    # G3 with one more factor 2^h: from h = 1 on it leaves its place in the
    # order of the four forms
    _changed_exponent(monkeypatch, "small", 2, 2, 1)
    code, out, _ = run_cli(["bound", "--verify-claims", "--grid", "6"], capsys)
    assert code == 5
    claims = json.loads(out.strip())["claims"]
    assert claims["ok"] is False
    assert [(c["name"], c["witness"]) for c in claims["checks"] if not c["ok"]] == [
        ("small: G2 <= G3 iff w <= d+h, equality iff w = d+h", [1, 0, 1]),
        ("small: G3 <= G4 iff w <= 3d-h, equality iff w = 3d-h", [-3, 0, 1]),
        ("small: min(G1..G4) = F on the ordered region h <= d", [4, 2, 1])]


def test_bound_global_sweep_failure_exits_5(capsys, monkeypatch):
    # a doubled two-case ceiling breaks the large-route identity at its
    # first point; the controlled route reads the four-case one only
    _doubled(monkeypatch, "f_large")
    code, out, _ = run_cli(["bound", "--global-sweep"], capsys)
    assert code == 5
    sweep = json.loads(out.strip())["global"]
    assert sweep["ok"] is False
    assert [(c["name"], c["witness"]) for c in sweep["checks"] if not c["ok"]] == [
        ("large route: 3^(n/4+D) F(n/2, n/4-D) = 6^(n/4) (27/32)^D <= 6^(n/4)",
         [8, 0])]


def test_bound_profile_above_the_bound_exits_5(capsys, monkeypatch):
    _doubled(monkeypatch, "g_small")
    code, out, _ = run_cli(["bound", "--n", "8", "--profile", "2,0,0,0"], capsys)
    assert code == 5
    cert = json.loads(out.strip())["certificate"]
    assert (cert["N"], cert["scaled"], cert["within_bound"]) == ("27/4", "243/4", False)


def test_bound_refuses_empty(capsys):
    code, _, err = run_cli(["bound"], capsys)
    assert code == 4


def test_bound_refuses_bad_profile(capsys):
    code, _, _ = run_cli(["bound", "--n", "8", "--profile", "3,0,0,0"], capsys)
    assert code == 4


def test_bound_refuses_negative_grid(tmp_path, capsys):
    code, out, err = run_cli(["bound", "--verify-claims", "--grid", "-1"], capsys)
    assert code == 4 and out == "" and "--grid" in err
    prefix = str(tmp_path / "tables")
    code, _, _ = run_cli(["bound", "--dump-tables", prefix, "--grid", "-1"], capsys)
    assert code == 4 and not list(tmp_path.iterdir())


def test_bound_refuses_oversized_grid(tmp_path, capsys):
    prefix = str(tmp_path / "tables")
    code, _, err = run_cli(["bound", "--dump-tables", prefix, "--grid", "1100"],
                           capsys)
    assert code == 4 and "Traceback" not in err and "cells" in err
    assert not list(tmp_path.iterdir())


def test_bound_dump_tables(tmp_path, capsys):
    prefix = str(tmp_path / "tables")
    code, out, _ = run_cli(["bound", "--dump-tables", prefix, "--grid", "4"], capsys)
    assert code == 0
    assert (tmp_path / "tables.large.csv").exists()
    assert (tmp_path / "tables.small.csv").exists()


def test_gen_reduction(tmp_path, capsys):
    src = tmp_path / "src.cnf"
    src.write_text("p cnf 2 1\n1 2 0\n")
    out_path = tmp_path / "red.cnf"
    code, _, _ = run_cli(["gen", "--family", "reduction", "--input", str(src),
                          "-o", str(out_path)], capsys)
    assert code == 0
    assert "1 2 3 0" in out_path.read_text()


def test_gen_random_roundtrip(tmp_path, capsys):
    path = tmp_path / "r.cnf"
    code, _, _ = run_cli(["gen", "--family", "random", "--n", "6", "--m", "4",
                          "--seed", "2", "-o", str(path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 0


def test_enumerate_reads_stdin(maj4, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(maj4).read_text()))
    code, out, _ = run_cli(["enumerate", "--t", "2", "--closure", "--mode",
                            "count", "-"], capsys)
    assert code == 0 and json.loads(out)["count"] == 6


def test_t_auto_on_an_unsatisfiable_formula_is_refused(tmp_path, capsys):
    path = tmp_path / "unsat.cnf"
    path.write_text("p cnf 1 1\n1 0\n")       # its closure holds 1 and -1
    code, out, err = run_cli(["enumerate", "--t", "auto", "--closure",
                              str(path)], capsys)
    assert code == 4 and out == "" and "unsatisfiable" in err


def test_non_integer_t_is_refused(maj4, capsys):
    code, out, err = run_cli(["enumerate", "--t", "x", "--closure", maj4], capsys)
    assert code == 4 and out == "" and "--t expects an integer" in err


@pytest.mark.parametrize("args, message", [
    (["gen", "--family", "random", "--n", "6"], "--m required"),
    (["gen", "--family", "reduction"], "--input required"),
    (["bound", "--profile", "2,0,0,0"], "--profile requires --n"),
    (["bound", "--n", "8", "--profile", "2,0,0"], "--profile expects"),
])
def test_missing_or_malformed_options_are_refused(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 4 and out == "" and message in err


@pytest.mark.parametrize("n, k", [("4", "1"), ("4", "0"), ("-4", "3")])
def test_gen_maj_refuses_small_k_and_negative_n(n, k, capsys):
    code, out, err = run_cli(["gen", "--family", "maj", "--n", n, "--k", k],
                             capsys)
    assert code == 4 and out == "" and "k >= 2 and n >= 0" in err


def test_gen_closure_to_stdout(capsys):
    code, out, _ = run_cli(["gen", "--family", "maj", "--n", "4", "--closure"],
                           capsys)
    assert code == 0 and out.startswith("c naenum gen family=maj n=4")
    f = parse_dimacs(out)
    assert len(f.clauses) == 8 and is_negation_closed(f)


def test_bound_global_sweep(capsys):
    code, out, _ = run_cli(["bound", "--global-sweep"], capsys)
    assert code == 0 and json.loads(out)["global"]["ok"] is True


def test_internal_invariant_failure_exits_1(maj4, capsys, monkeypatch):
    def broken(*args, **kw):
        raise InternalInvariantError("broken on purpose")

    monkeypatch.setattr(cli, "collect_solutions", broken)
    code, out, err = run_cli(["enumerate", "--t", "2", "--closure", maj4], capsys)
    assert code == 1 and out == ""
    assert err == "internal invariant failure: broken on purpose\n"


def test_out_of_memory_exits_4(maj4, capsys, monkeypatch):
    def exhausted(*args, **kw):
        raise MemoryError

    monkeypatch.setattr(analysis, "estimate_psi", exhausted)
    code, out, err = run_cli(["enumerate", "--t", "2", "--closure", "--mode", "psi",
                              maj4], capsys)
    assert (code, out, err) == (4, "", "refused: out of memory\n")


def test_interrupt_exits_130(maj4, capsys, monkeypatch):
    def interrupted(*args, **kw):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "count_solutions", interrupted)
    code, out, err = run_cli(["enumerate", "--t", "2", "--closure", "--mode", "count",
                              maj4], capsys)
    assert (code, out, err) == (130, "", "interrupted\n")


def test_sigint_ends_a_count_with_exit_130(tmp_path):
    # a sequential count of the closure of maj(40,3) runs for minutes; the
    # child prints a line once its search has started, and SIGINT then
    # ends it with exit 130, one stderr line, no traceback and no JSON
    path = tmp_path / "maj40.cnf"
    assert main(["gen", "--family", "maj", "--n", "40", "-o", str(path)]) == 0
    script = ("import sys\n"
              "from naenum import cli, treesearch\n"
              "run = treesearch._Engine.run\n"
              "def started(eng, *args):\n"
              "    print('ready', flush=True)\n"
              "    return run(eng, *args)\n"
              "treesearch._Engine.run = started\n"
              "raise SystemExit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "enumerate", "--t", "20", "--mode", "count",
         "--closure", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no ready line in 60 s"
        assert proc.stdout.readline() == "ready\n"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (130, "", "interrupted\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["enumerate"])  # missing required file / --t
    assert ei.value.code == 4


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "naenum.cli", "bound",
                           "--f-large", "3", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f_large"]["value"] == "3/2"
