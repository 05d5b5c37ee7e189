"""Reach audit: list the statements of ``src/naenum`` that the tier-1 suite
never executes, the record fields that no program code reads, and the
functions that no program code calls.

    python tools/reach.py          # exit 1 if one is found and not allowed
    python tools/reach.py --all    # also print the allowed ones

The suite runs in this process under ``sys.settrace``, traced only inside
``src/naenum``.  Code that the suite runs in subprocesses is not followed.
A statement is unreached when none of its executable lines ran.

The run also fails when the audit saw only part of the suite: when pytest
stops short of running it (a usage or internal error, no tests), or when a
test or a test module fails both under the trace and untraced.  Each test
that fails under the trace is run once more, untraced, in a fresh
interpreter; one that passes there is printed as "tracer-only" and does not
count, because tracing slows every test, so timing gates may fail, and
tracemalloc also counts the tracer's allocations.

``tools/reach_allow.txt`` lists the statements that may stay unreached, one
per line as

    <file> :: <enclosing function> :: <statement> :: <reason>

where <statement> is the statement's source (a compound statement's header
only) with each line stripped and the lines joined by one space.  Entries
are keyed by text rather than line number, so edits elsewhere in a file do
not stale the list.  Every entry needs a reason.  Entries that match no
unreached statement are reported as stale but do not fail the run.

The field audit watches reads.  For the run, ``__getattribute__`` of every
dataclass and ``NamedTuple`` declared in ``src/naenum`` is wrapped, and a
field counts as read once code that the program uses reads it from an
instance, by attribute or ``getattr``: a function of ``src/naenum`` that the
call audit below counts as called, or a module's top-level code there.
Reads by tests, demos, the standard library, the ``__repr__``/``__eq__``
that ``dataclasses`` generates and functions of ``src/naenum`` that only
tests call do not count, nor do stores, including the load that an
augmented store such as ``x.count += 1`` makes first.  A ``NamedTuple``
field read only by index or unpacking is not seen.  The original
``__getattribute__`` is put back after the run, or as soon as every field of
the class has been read.  An unread field may be allowed by an entry

    <file> :: <class> :: field <name> :: <reason>

whose reason names the field's reader outside ``src/``.

The call audit watches calls, in the same traced run.  A function's code
object counts as called once a call into it comes from code of
``src/naenum`` that counts itself: a function already counted as called, or
a root.  The roots are each module's top-level code and ``cli.main``, the
console script's entry point.  So a call from a function that only tests
call does not count, nor does one from a helper that only such functions
call.  The caller is found by walking up from the called frame past frames
of installed code (the standard library and site-packages) and generated
ones such as ``<string>``, so a callback that ``argparse`` runs for
``cli.main`` counts, and past the field audit's wrappers, so a property of a
watched class counts too.  A call that a test makes, directly or through
installed code, does not count.  A generator counts where it is first
resumed, not where it is made.  Before each test the run empties every
``functools`` cache among the top-level names of the modules of
``src/naenum``, so a call that an earlier test's result would answer still
enters the cached function.  Every named ``def`` of ``src/naenum`` not so
called is reported: methods, properties, nested functions and dunder
methods alike.  A dunder counts once program code reaches it through an
operator (``a <= b``), a builtin (``float(v)``, ``max(..., key=...)``, whose
C frames the walk does not see) or a dataclass's generated ``__init__``
(``__post_init__``).  Functions are keyed by file and first line, which a
decorated function's code object takes from its first decorator.  An
uncalled function may be allowed by an entry

    <file> :: <class, enclosing function or <module>> :: def <name> :: <reason>

whose reason names the function's caller outside ``src/``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import dis
import functools
import importlib
import os
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path
from typing import Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "naenum"
ALLOW = Path(__file__).resolve().parent / "reach_allow.txt"
SEP = " :: "
# the standard library and site-packages
_INSTALLED = tuple({os.path.join(sysconfig.get_paths()[k], "")
                    for k in ("stdlib", "platstdlib", "purelib", "platlib")})


def _code_lines(code) -> set[int]:
    """Line numbers that carry instructions, over nested code objects; the
    ``def`` line of a function belongs to its enclosing code."""
    out: set[int] = set()
    stack = [(code, True)]
    while stack:
        co, is_module = stack.pop()
        for _, _, line in co.co_lines():
            if line and (is_module or line != co.co_firstlineno
                         or co.co_name.startswith("<")):
                out.add(line)
        stack.extend((c, False) for c in co.co_consts if hasattr(c, "co_lines"))
    return out


def _statements(tree: ast.Module) -> tuple[dict[int, int], dict[int, str]]:
    """Per line, the first line of the innermost statement (or statement
    header) it belongs to; per first line, the enclosing function's name."""
    start: dict[int, int] = {}
    func: dict[int, str] = {}

    def visit(node: ast.AST, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            q = qual
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                body = getattr(child, "body", None)
                end = child.end_lineno
                if isinstance(body, list) and body:     # header lines only
                    end = max(child.lineno, body[0].lineno - 1)
                decos = getattr(child, "decorator_list", [])
                for line in range(min([child.lineno] + [d.lineno for d in decos]),
                                  end + 1):
                    start[line] = child.lineno
                func[child.lineno] = qual or "<module>"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    q = f"{qual}.{child.name}" if qual else child.name
            visit(child, q)

    visit(tree, "")
    return start, func


def own_fields(cls: type) -> tuple[str, ...]:
    """The fields that a dataclass or ``NamedTuple`` declares itself."""
    if dataclasses.is_dataclass(cls):
        own = vars(cls).get("__annotations__", {})
        return tuple(f.name for f in dataclasses.fields(cls) if f.name in own)
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return cls._fields
    return ()


def record_classes(modules: Iterable) -> list[type]:
    """The dataclasses and ``NamedTuple`` classes declared in ``modules``."""
    return [obj for mod in modules for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and own_fields(obj)]


@functools.cache
def _augmented_loads(code) -> frozenset[int]:
    """Offsets of the attribute loads in ``code`` that an augmented store
    (``x.f += 1``: copy ``x``, load ``f``, ..., store ``f``) makes."""
    ins = list(dis.get_instructions(code))
    stored = {i.argval for i in ins if i.opname == "STORE_ATTR"}
    return frozenset(b.offset for a, b in zip(ins, ins[1:])
                     if b.opname == "LOAD_ATTR" and b.argval in stored
                     and (a.opname, a.arg) in (("COPY", 1), ("DUP_TOP", None)))


@contextlib.contextmanager
def watch_reads(classes: Iterable[type], directory: str | os.PathLike,
                called: set) -> Iterator[set[tuple[type, str]]]:
    """Yield the set of (declaring class, field) that code in files under
    ``directory`` reads from instances of ``classes`` while the block runs,
    where the reading code object is in ``called`` (read when the read
    happens, so the call audit may fill it during the block) or is a
    module's top-level code.

    Each class gets a ``__getattribute__`` that records such a read and
    then defers to the one the class had; the originals are put back on
    exit, or for a class as soon as each of its fields has been read."""
    classes = list(classes)
    prefix = os.path.join(os.fspath(directory), "")
    reads: set[tuple[type, str]] = set()
    saved = {cls: (vars(cls).get("__getattribute__"), cls.__getattribute__)
             for cls in classes}

    def restore(cls: type) -> None:
        own, _ = saved.pop(cls)
        if own is None:
            delattr(cls, "__getattribute__")
        else:
            cls.__getattribute__ = own

    def wrap(cls: type, orig):
        # field name -> the watched class in the MRO that declares it
        owner = {name: base for base in reversed(cls.__mro__)
                 if base in saved for name in own_fields(base)}

        def __getattribute__(self, name):
            decl = owner.get(name)
            if decl is not None and (decl, name) not in reads:
                caller = sys._getframe(1)
                code = caller.f_code
                if (code.co_filename.startswith(prefix)
                        and credited(code, called)
                        and caller.f_lasti not in _augmented_loads(code)):
                    reads.add((decl, name))
                    if cls in saved and all((base, f) in reads
                                            for f, base in owner.items()):
                        restore(cls)
            return orig(self, name)

        return __getattribute__

    for cls in classes:
        cls.__getattribute__ = wrap(cls, saved[cls][1])
    try:
        yield reads
    finally:
        for cls in list(saved):
            restore(cls)


def _field_lines(path: Path) -> dict[tuple[str, str], int]:
    """(class, field) -> line of the field's annotation in ``path``."""
    return {(cls.name, st.target.id): st.lineno
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef) for st in cls.body
            if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)}


def _passes_through(filename: str) -> bool:
    """Whether the call audit looks past a frame of this file for the
    caller: installed code, generated code (``<string>``, frozen modules)
    and this file, whose ``__getattribute__`` wrappers run a property's
    getter."""
    return (filename.startswith("<") or filename.startswith(_INSTALLED)
            or filename == __file__)


def credited(code, called) -> bool:
    """Whether calls and reads made by ``code`` count: it is in ``called``
    or is a module's top-level code."""
    return code in called or code.co_name == "<module>"


def clear_caches(modules: Iterable) -> None:
    """Empty every ``functools`` cache among the top-level names of
    ``modules``, so the next call of a cached function enters its frame."""
    for mod in modules:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def make_tracer(files: dict[str, set[int]], called: set):
    """A global trace function for ``sys.settrace``.  In code of a file in
    ``files`` it adds each line that runs to the file's set, and it adds the
    code object to ``called`` once a call into it comes from code of those
    files that is ``credited``, through any installed and generated frames.
    The roots go into ``called`` beforehand.  Each file has one local trace
    function, made here."""
    need: dict = {}     # code object -> [its lines, called yet]: one lookup a call

    def line_recorder(seen: set[int]):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    local_of = {path: line_recorder(seen) for path, seen in files.items()}

    def tracer(frame, event, arg):
        code = frame.f_code
        local = local_of.get(code.co_filename)
        if local is None:
            return None
        entry = need.get(code)
        if entry is None:
            entry = need[code] = [{l for _, _, l in code.co_lines()
                                   if l and l != code.co_firstlineno}, False]
        if not entry[1]:
            caller = frame.f_back
            while caller is not None and _passes_through(caller.f_code.co_filename):
                caller = caller.f_back
            if (caller is not None and caller.f_code.co_filename in files
                    and credited(caller.f_code, called)):
                entry[1] = True
                called.add(code)
        if entry[0] <= files[code.co_filename]:   # every line already ran
            return None
        return local

    return tracer


def uncalled_defs(path: str, called: Iterable) -> list[tuple[str, int, str]]:
    """(enclosing class, function or ``<module>``, line, ``def <name>``), in
    line order, for each named function of the file ``path`` whose code
    object is not in ``called``."""
    firsts = {code.co_firstlineno for code in called if code.co_filename == path}
    tree = ast.parse(Path(path).read_text())
    _, func = _statements(tree)
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(func[node.lineno], node.lineno, f"def {node.name}")
            for node in sorted(defs, key=lambda node: node.lineno)
            if min([node.lineno] + [d.lineno for d in node.decorator_list])
            not in firsts]


def _trace_suite(pytest_args: list[str]):
    """Lines run per file of ``src/naenum``, the code objects that its code
    called, the ids of failed tests and test modules, pytest's exit code,
    the record classes of ``src/naenum`` and the (class, field) pairs that
    its code read."""
    files = {str(p): set() for p in PKG.glob("*.py")}
    called: set = set()
    failed: list[str] = []
    modules: list = []
    tracer = make_tracer(files, called)

    class Rearm:
        """A RecursionError raised inside the trace function switches
        tracing off (tests that exhaust the recursion limit do this), so
        tracing is switched back on before every test.  The package's
        caches are emptied first: a call that an earlier test's result
        answers would not enter the cached function's frame."""

        @staticmethod
        def pytest_runtest_setup(item):
            clear_caches(modules)
            sys.settrace(tracer)

        @staticmethod
        def pytest_runtest_logreport(report):
            if report.failed and report.nodeid not in failed:
                failed.append(report.nodeid)

        pytest_collectreport = pytest_runtest_logreport

    import pytest

    sys.path.insert(0, str(SRC))
    # for the tests that start ``python -m naenum.cli``
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        # imported under the trace, so their module-level statements count
        modules += [importlib.import_module(f"naenum.{p.stem}")
                    for p in sorted(PKG.glob("*.py"))]
        called.add(sys.modules["naenum.cli"].main.__code__)     # the root
        classes = record_classes(modules)
        with watch_reads(classes, PKG, called) as reads:
            code = pytest.main(pytest_args, plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return files, called, failed, int(code), classes, reads


def _passes_untraced(nodeid: str) -> bool:
    """Whether the test passes in a fresh interpreter without the trace."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                          "no:cacheprovider", nodeid], cwd=ROOT,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def _read_allow() -> list[tuple[str, str, str, str]]:
    entries = []
    for n, raw in enumerate(ALLOW.read_text().splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split(SEP, 3)
        if len(parts) != 4 or not parts[3].strip():
            raise SystemExit(f"{ALLOW.name}:{n}: want 'file{SEP}function{SEP}"
                             f"text{SEP}reason', with a reason")
        entries.append(tuple(p.strip() for p in parts))
    return entries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--all", action="store_true",
                    help="print the allowed statements, fields and functions too")
    ap.add_argument("pytest_args", nargs="*",
                    default=["-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors", str(ROOT / "tests")])
    args = ap.parse_args(argv)
    allow = _read_allow()
    hits, called, failed, code, classes, reads = _trace_suite(args.pytest_args)

    unreached = []                  # (file, function, first line, statement)
    uncalled = []                   # (file, enclosing, line, "def <name>")
    for path in sorted(hits):
        uncalled += [(Path(path).name, *d) for d in uncalled_defs(path, called)]
        src = Path(path).read_text()
        start, func = _statements(ast.parse(src))
        text = src.splitlines()
        span: dict[int, list[int]] = {}
        for line, first in sorted(start.items()):
            span.setdefault(first, []).append(line)
        by_stmt: dict[int, list[int]] = {}
        for line in _code_lines(compile(src, path, "exec")):
            by_stmt.setdefault(start.get(line, line), []).append(line)
        for first, lines in sorted(by_stmt.items()):
            if not any(l in hits[path] for l in lines):
                stmt = " ".join(text[l - 1].strip() for l in span.get(first, [first]))
                unreached.append((Path(path).name, func.get(first, "<module>"),
                                  first, stmt))

    unread = []                     # (file, class, line, "field <name>")
    for cls in classes:
        path = Path(sys.modules[cls.__module__].__file__)
        lines = _field_lines(path)
        unread += [(path.name, cls.__qualname__,
                    lines.get((cls.__name__, name), 0), f"field {name}")
                   for name in own_fields(cls) if (cls, name) not in reads]
    used = set()
    bad = 0
    print(f"\n{len(unreached)} unreached statements, {len(unread)} unread "
          f"fields and {len(uncalled)} uncalled functions in src/naenum")
    for name, fn, line, stmt in unreached + unread + uncalled:
        key = next((e for e in allow if e[:3] == (name, fn, stmt)), None)
        if key is None:
            bad += 1
            print(f"NOT ALLOWED {name}:{line} {fn}: {stmt}")
        else:
            used.add(key)
            if args.all:
                print(f"allowed     {name}:{line} {fn}: {stmt}  # {key[3]}")
    for e in allow:
        if e not in used:
            print(f"stale allow entry: {SEP.join(e[:3])}")
    print(f"{bad} unreached statements, unread fields or uncalled functions "
          f"not in {ALLOW.name}")
    if code not in (0, 1):          # 1: some test failed, dealt with below
        bad += 1
        print(f"pytest stopped with exit code {code}: the suite did not run through")
    print(f"{len(failed)} tests failed under the trace")
    for nodeid in failed:
        if _passes_untraced(nodeid):
            print(f"tracer-only (passes untraced): {nodeid}")
        else:
            bad += 1
            print(f"failed under trace and untraced: {nodeid}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
