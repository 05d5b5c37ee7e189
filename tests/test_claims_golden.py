"""The exact bound checkers reproduce their checked-in reports: the claim
grids (acceptance, small, CLI ``--grid 6`` and larger), the global bound
sweep and the DP tables' CSV dumps.  The file was written before the claim
grids moved to the squared-integer kernel; regenerate it with
``tests/data/make_claims_golden.py`` only when a report is meant to change."""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_claims_golden", DATA / "make_claims_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_claims_match_golden_reports(capsys):
    assert _generator().main(["--check"]) == 0
    assert "all reports match" in capsys.readouterr().out


def test_golden_check_names_first_difference():
    gen = _generator()
    want = json.loads((DATA / "claims_golden.json").read_text())
    got = json.loads(json.dumps(want))
    got["claims"]["acceptance"]["checks"][6]["witness"] = [1, 1, 0]
    assert gen.first_difference(want, got) == (
        "claims", "acceptance", "checks", 6, "witness")
    got["global"]["details"].pop()
    assert gen.first_difference(want, got) == ("claims", "acceptance", "checks",
                                               6, "witness")
    del got["claims"]["acceptance"]
    assert gen.first_difference(want, got) == ("claims", "acceptance")
