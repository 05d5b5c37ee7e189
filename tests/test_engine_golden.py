"""The engine reproduces its checked-in transcript: stats and emission order
under the fixed ordering and two seeded orderings, plus debug-tree sizes and
exact survival values on the reset instances.  A failure means the searched
tree, the ordering stream or the emission order moved; if that was intended,
regenerate the file with ``tests/data/make_engine_golden.py``."""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_engine_golden", DATA / "make_engine_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_engine_matches_golden_transcript(capsys):
    assert _generator().main(["--check"]) == 0
    assert "46 instances match" in capsys.readouterr().out


def test_golden_check_names_first_difference():
    gen = _generator()
    want = json.loads((DATA / "engine_golden.json").read_text())
    got = json.loads(json.dumps(want))
    got["maj12"]["seed1"]["stats"]["superfluous_skips"] += 1
    got["structure_reset"]["debug_tree"]["psi_exact"] = "26"
    assert gen.first_difference(want, got) == ("maj12", "seed1", "stats",
                                               "superfluous_skips")
    del got["maj12"]
    assert gen.first_difference(want, got) == ("maj12",)
