"""The field-read and call recorders of ``tools/reach.py``, on a throwaway
module whose directory or file is the watched one.  The module's ``main``
plays ``cli.main``'s role: the tests that want calls and reads to count
make it a root and go through it."""

import contextlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = """\
import argparse
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


def helper():
    return 1


def calls_helper():
    return helper()


def only_the_test_calls():
    return 2


def convert(text):
    return int(text)


def parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--x", type=convert)
    return ap.parse_args(argv).x


def double(x):
    return 2 * x


def doubled(xs):
    return np.vectorize(double)(xs).tolist()


class Box:
    def __eq__(self, other):
        return True

    @property
    def size(self):
        return 3

    def unused(self):
        return 4


def box_size(box):
    return box.size


@dataclass
class Span:
    lo: int
    hi: int

    @property
    def width(self):
        return self.hi - self.lo


def span_width(span):
    return span.width


def main(fn, *args):
    return fn(*args)


@dataclass
class Level:
    v: int

    def __post_init__(self):
        self.v = abs(self.v)

    def __lt__(self, other):
        return self.v < other.v

    def __add__(self, other):
        return Level(self.v + other.v)

    def __repr__(self):
        return f"Level({self.v})"


def total(levels):
    return levels[0] + levels[1]


def top(levels):
    return max(range(len(levels)), key=levels.__getitem__)


@functools.lru_cache(maxsize=None)
def cached(x):
    return x + 1


def uses_cached(x):
    return cached(x)
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


@contextlib.contextmanager
def calls(reach, path, *roots):
    """The code objects of ``path`` that its own code calls in the block,
    and those of ``roots``, which count from the start."""
    called = {fn.__code__ for fn in roots}
    previous = sys.gettrace()
    sys.settrace(reach.make_tracer({str(path): set()}, called))
    try:
        yield called
    finally:
        sys.settrace(previous)




def names(called) -> set[str]:
    return {code.co_name for code in called}


def test_records_reads_from_watched_code_only(reach, mod, tmp_path):
    classes = reach.record_classes([mod])
    assert set(classes) == {mod.Rec, mod.Sub, mod.Pair, mod.Span, mod.Level}
    assert reach.own_fields(mod.Sub) == ("d",)
    r, p = mod.Rec(1), mod.Pair(2, 3)
    with calls(reach, tmp_path / "records.py", mod.main) as called, \
            reach.watch_reads(classes, tmp_path, called) as reads:
        assert mod.main(mod.read_a, r) == 1                     # counts
        assert mod.main(mod.read_x_by_name, p) == 2             # counts
        assert (r.b, r.c, p.y, p[1]) == (0, 0, 3, 3)    # the test's own reads
        mod.main(mod.store_b, r)                        # a store
        mod.main(mod.bump_c, r)                         # an augmented store
        assert (r.b, r.c) == (5, 1)
        assert repr(r) == "Rec(a=1, b=5, c=1)"          # generated code
        # b is Rec's field
        assert mod.main(mod.read_sub, mod.Sub(4, 2, d=6)) == 8
    assert reads == {(mod.Rec, "a"), (mod.Pair, "x"), (mod.Rec, "b"),
                     (mod.Sub, "d")}


def test_a_read_counts_only_from_code_that_watched_code_called(reach, mod, tmp_path):
    # read_a is code of the watched file, but while only the test calls it
    # its read of Rec.a does not count, so the field would be reported
    # unread; a module's top-level code counts without a caller
    r = mod.Rec(1)
    with calls(reach, tmp_path / "records.py", mod.main) as called, \
            reach.watch_reads([mod.Rec], tmp_path, called) as reads:
        assert mod.read_a(r) == 1
        assert (called, reads) == ({mod.main.__code__}, set())
        assert mod.main(mod.read_a, r) == 1
        assert reads == {(mod.Rec, "a")}
        eval(compile("r.b", str(tmp_path / "records.py"), "eval"))
    assert reads == {(mod.Rec, "a"), (mod.Rec, "b")}


def test_restores_the_original_getattribute(reach, mod, tmp_path):
    classes = reach.record_classes([mod])
    with reach.watch_reads(classes, tmp_path, set()):
        assert all("__getattribute__" in vars(cls) for cls in classes)
    assert all("__getattribute__" not in vars(cls) for cls in classes)
    assert mod.Rec.__getattribute__ is object.__getattribute__
    assert mod.Pair.__getattribute__ is tuple.__getattribute__


def test_a_class_is_unwrapped_once_every_field_is_read(reach, mod, tmp_path):
    called = {mod.read_x_by_name.__code__}
    with reach.watch_reads([mod.Pair], tmp_path, called) as reads:
        p = mod.Pair(2, 3)
        mod.read_x_by_name(p)
        assert "__getattribute__" in vars(mod.Pair)
        mod.read_x_by_name(p._replace(x=p.y))   # still only x
        assert "__getattribute__" in vars(mod.Pair)
        eval(compile("p.y", str(tmp_path / "records.py"), "eval"))
        assert "__getattribute__" not in vars(mod.Pair)
    assert reads == {(mod.Pair, "x"), (mod.Pair, "y")}


def test_a_read_outside_the_watched_directory_does_not_count(reach, mod, tmp_path):
    called = {mod.read_a.__code__}
    with reach.watch_reads([mod.Rec], tmp_path / "elsewhere", called) as reads:
        mod.read_a(mod.Rec(1))
    assert reads == set()


def test_records_calls_from_watched_code_only(reach, mod, tmp_path):
    path = tmp_path / "records.py"
    with calls(reach, path) as called:
        assert mod.helper() == 1                        # the test's own call
        assert mod.only_the_test_calls() == 2
        assert mod.Box() == mod.Box()                   # a dunder
        assert mod.Box().size == 3
        assert np.vectorize(mod.double)([1]).tolist() == [2]
    assert called == set()
    with calls(reach, path, mod.main) as called:
        assert mod.main(mod.calls_helper) == 1          # counts for helper
        assert mod.main(mod.parse, ["--x", "5"]) == 5   # argparse calls convert
        assert mod.main(mod.doubled, [1, 2]) == [2, 4]  # numpy calls double
        assert mod.main(mod.box_size, mod.Box()) == 3   # a decorated def
    assert names(called) == {"main", "calls_helper", "helper", "parse",
                             "convert", "doubled", "double", "box_size", "size"}


def test_a_helper_that_only_test_only_code_calls_is_uncalled(reach, mod, tmp_path):
    # calls_helper is code of the watched file, but only the test calls it,
    # so its call of helper does not count either
    path = tmp_path / "records.py"
    with calls(reach, path, mod.main) as called:
        assert mod.calls_helper() == 1
    assert called == {mod.main.__code__}
    report = {name for _, _, name in reach.uncalled_defs(str(path), called)}
    assert {"def calls_helper", "def helper"} <= report
    assert "def main" not in report


def test_a_root_credits_its_callees(reach, mod, tmp_path):
    # main calls calls_helper, which calls helper: with main a root both
    # count, and without it none does
    path = tmp_path / "records.py"
    with calls(reach, path) as called:
        assert mod.main(mod.calls_helper) == 1
    assert called == set()
    with calls(reach, path, mod.main) as called:
        assert mod.main(mod.calls_helper) == 1
    assert names(called) == {"main", "calls_helper", "helper"}


def test_a_cached_function_counts_after_the_cache_clear(reach, mod, tmp_path):
    # the test's own call fills the cache, so main's later call is answered
    # from it and never enters cached's frame until the caches are emptied
    path = tmp_path / "records.py"
    with calls(reach, path, mod.main) as called:
        assert mod.cached(1) == 2
        assert mod.main(mod.uses_cached, 1) == 2
        assert names(called) == {"main", "uses_cached"}
        reach.clear_caches([mod])
        assert mod.main(mod.uses_cached, 1) == 2
    assert mod.cached.__wrapped__.__code__ in called


def test_a_property_read_through_the_field_wrapper_counts(reach, mod, tmp_path):
    with calls(reach, tmp_path / "records.py", mod.main) as called, \
            reach.watch_reads([mod.Span], tmp_path, called) as reads:
        assert mod.main(mod.span_width, mod.Span(2, 7)) == 5
    assert names(called) == {"main", "span_width", "width"}
    assert reads == {(mod.Span, "lo"), (mod.Span, "hi")}


def test_a_dunder_counts_when_watched_code_reaches_it(reach, mod, tmp_path):
    path = tmp_path / "records.py"
    with calls(reach, path) as called:
        a, b = mod.Level(-2), mod.Level(3)     # __post_init__, for the test
        assert a < b and repr(a) == "Level(2)"
        assert mod.Box() == mod.Box()
    assert called == set()
    with calls(reach, path, mod.main) as called:
        # __add__ through an operator, and __post_init__ through the
        # generated __init__ of the Level that __add__ makes
        assert mod.main(mod.total, [a, b]).v == 5
        assert mod.main(mod.top, [b, a]) == 0   # max(key=...) calls __lt__
    assert names(called) == {"main", "total", "__add__", "__post_init__",
                             "top", "__lt__"}


def test_reports_each_def_that_watched_code_never_called(reach, mod, tmp_path):
    path = tmp_path / "records.py"
    with calls(reach, path, mod.main) as called:
        mod.calls_helper()                      # only the test calls it
        mod.only_the_test_calls()
        mod.main(mod.parse, ["--x", "5"])
        mod.main(mod.box_size, mod.Box())
        assert mod.Box() == mod.Box()           # a dunder only the test uses
        levels = [mod.Level(1), mod.Level(2)]
        assert mod.main(mod.total, levels).v == 3
        assert mod.main(mod.top, levels) == 1
        assert repr(levels[0]) == "Level(1)"    # the same
        assert mod.main(mod.uses_cached, 1) == 2
    report = reach.uncalled_defs(str(path), called)
    assert [(where, name) for where, _, name in report] == [
        ("<module>", f"def {name}") for name in (
            "read_a", "read_x_by_name", "store_b", "bump_c", "read_sub",
            "helper", "calls_helper", "only_the_test_calls", "double",
            "doubled")] + [
        ("Box", "def __eq__"), ("Box", "def unused"),
        ("Span", "def width"), ("<module>", "def span_width"),
        ("Level", "def __repr__")]
    lines = path.read_text().splitlines()
    assert all(lines[line - 1].lstrip().startswith(name) for _, line, name in report)
