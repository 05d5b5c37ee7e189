"""The field-read recorder of ``tools/reach.py``, on a throwaway module whose
directory is the watched one."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = """\
from dataclasses import dataclass
from typing import NamedTuple


@dataclass
class Rec:
    a: int
    b: int = 0
    c: int = 0


@dataclass
class Sub(Rec):
    d: int = 0


class Pair(NamedTuple):
    x: int
    y: int


def read_a(r):
    return r.a


def read_x_by_name(p):
    return getattr(p, "x")


def store_b(r):
    r.b = 5


def bump_c(r):
    r.c += 1


def read_sub(s):
    return s.b + s.d
"""


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def reach():
    return _load(TOOLS / "reach.py", "reach_under_test")


@pytest.fixture
def mod(tmp_path):
    path = tmp_path / "records.py"
    path.write_text(textwrap.dedent(MODULE))
    mod = _load(path, "records_under_test")
    sys.modules[mod.__name__] = mod     # dataclasses looks the module up
    yield mod
    del sys.modules[mod.__name__]


def test_records_reads_from_watched_code_only(reach, mod, tmp_path):
    classes = reach.record_classes([mod])
    assert set(classes) == {mod.Rec, mod.Sub, mod.Pair}
    assert reach.own_fields(mod.Sub) == ("d",)
    r, p = mod.Rec(1), mod.Pair(2, 3)
    with reach.watch_reads(classes, tmp_path) as reads:
        assert mod.read_a(r) == 1                       # counts
        assert mod.read_x_by_name(p) == 2               # counts
        assert (r.b, r.c, p.y, p[1]) == (0, 0, 3, 3)    # the test's own reads
        mod.store_b(r)                                  # a store
        mod.bump_c(r)                                   # an augmented store
        assert (r.b, r.c) == (5, 1)
        assert repr(r) == "Rec(a=1, b=5, c=1)"          # generated code
        assert mod.read_sub(mod.Sub(4, 2, d=6)) == 8    # b is Rec's field
    assert reads == {(mod.Rec, "a"), (mod.Pair, "x"), (mod.Rec, "b"),
                     (mod.Sub, "d")}


def test_restores_the_original_getattribute(reach, mod, tmp_path):
    classes = reach.record_classes([mod])
    with reach.watch_reads(classes, tmp_path):
        assert all("__getattribute__" in vars(cls) for cls in classes)
    assert all("__getattribute__" not in vars(cls) for cls in classes)
    assert mod.Rec.__getattribute__ is object.__getattribute__
    assert mod.Pair.__getattribute__ is tuple.__getattribute__


def test_a_class_is_unwrapped_once_every_field_is_read(reach, mod, tmp_path):
    with reach.watch_reads([mod.Pair], tmp_path) as reads:
        p = mod.Pair(2, 3)
        mod.read_x_by_name(p)
        assert "__getattribute__" in vars(mod.Pair)
        mod.read_x_by_name(p._replace(x=p.y))   # still only x
        assert "__getattribute__" in vars(mod.Pair)
        eval(compile("p.y", str(tmp_path / "records.py"), "eval"))
        assert "__getattribute__" not in vars(mod.Pair)
    assert reads == {(mod.Pair, "x"), (mod.Pair, "y")}


def test_a_read_outside_the_watched_directory_does_not_count(reach, mod, tmp_path):
    with reach.watch_reads([mod.Rec], tmp_path / "elsewhere") as reads:
        mod.read_a(mod.Rec(1))
    assert reads == set()
