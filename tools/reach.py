"""Reach audit: list the statements of ``src/naenum`` that the tier-1 suite
never executes, and the record fields that no code reads.

    python tools/reach.py          # exit 1 if one is found and not allowed
    python tools/reach.py --all    # also print the allowed ones

The suite runs in this process under ``sys.settrace``, traced only inside
``src/naenum``.  The ids of the tests that fail under the trace are printed,
but they do not set the exit code: tracing slows every test, so timing gates
may fail, and tracemalloc also counts the tracer's allocations.  Each such
test is run once more, untraced, in a fresh interpreter, and printed as
"tracer-only" when it passes there.  Code that the suite runs in
subprocesses is not followed.  A statement is unreached when none of its
executable lines ran.
``tools/reach_allow.txt`` lists the statements that may stay unreached, one
per line as

    <file> :: <enclosing function> :: <statement> :: <reason>

where <statement> is the statement's source (a compound statement's header
only) with each line stripped and the lines joined by one space.  Entries
are keyed by text rather than line number, so edits elsewhere in a file do
not stale the list.  Every entry needs a reason.  Entries that match no
unreached statement are reported as stale but do not fail the run.

The field audit lists every field of a dataclass or ``NamedTuple`` declared
in ``src/naenum`` that nothing reads.  A field counts as read if some file
under ``src/``, ``tests/``, ``demos/`` or ``perfbench/`` loads an attribute
of its name or holds a string literal equal to it (``getattr``, dict keys).
Stores, including augmented ones such as ``x.count += 1``, are not reads.
Matching is by name only, so a field is read as soon as any class's field
or attribute of that name is: ``TreeNode.ell`` would count as read through
``TwomarkContext.ell``.  The same goes for unrelated string literals and for
readers that are only tests: a field named ``n`` passes through ``Formula.n``,
one named ``p`` through a ``"p"`` literal such as a DIMACS header tag, and a
field that only a test's name list mentions passes although no program code
reads it.  An unread field may be allowed by an entry

    <file> :: <class> :: field <name> :: <reason>
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "naenum"
ALLOW = Path(__file__).resolve().parent / "reach_allow.txt"
READERS = ("src", "tests", "demos", "perfbench")
SEP = " :: "


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


def _is_record(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` (with or without arguments) or a ``NamedTuple``."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = {getattr(m, "id", getattr(m, "attr", None)) for m in marks + cls.bases}
    return bool(names & {"dataclass", "NamedTuple"})


def _unread_fields() -> list[tuple[str, str, int, str]]:
    """(file, class, line, ``field <name>``) per record field of
    ``src/naenum`` whose name nothing reads."""
    read: set[str] = set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    out = []
    for path in sorted(PKG.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                out += [(path.name, cls.name, st.lineno, f"field {st.target.id}")
                        for st in cls.body if isinstance(st, ast.AnnAssign)
                        and isinstance(st.target, ast.Name)
                        and st.target.id not in read]
    return out


def _trace_suite(pytest_args: list[str]) -> tuple[dict[str, set[int]], list[str]]:
    """Lines run per file of ``src/naenum``, and the ids of failed tests."""
    files = {str(p): set() for p in PKG.glob("*.py")}
    failed: list[str] = []
    need: dict = {}

    def local_for(seen: set[int]):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        seen = files.get(code.co_filename)
        if seen is None:
            return None
        lines = need.get(code)
        if lines is None:
            lines = need[code] = {l for _, _, l in code.co_lines()
                                  if l and l != code.co_firstlineno}
        if lines <= seen:           # every line of this code object already ran
            return None
        return local_for(seen)

    class Rearm:
        """A RecursionError raised inside the trace function switches
        tracing off (tests that exhaust the recursion limit do this), so
        tracing is switched back on before every test."""

        @staticmethod
        def pytest_runtest_setup(item):
            sys.settrace(tracer)

        @staticmethod
        def pytest_runtest_logreport(report):
            if report.failed and report.nodeid not in failed:
                failed.append(report.nodeid)

    import pytest

    sys.path.insert(0, str(SRC))
    # for the tests that start ``python -m naenum.cli``
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(pytest_args, plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return files, failed


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
                    help="print allowed unreached statements too")
    ap.add_argument("pytest_args", nargs="*",
                    default=["-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors", str(ROOT / "tests")])
    args = ap.parse_args(argv)
    allow = _read_allow()
    hits, failed = _trace_suite(args.pytest_args)

    unreached = []                  # (file, function, first line, statement)
    for path in sorted(hits):
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

    unread = _unread_fields()
    used = set()
    bad = 0
    print(f"\n{len(unreached)} unreached statements and {len(unread)} unread "
          f"fields in src/naenum")
    for name, fn, line, stmt in unreached + unread:
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
    print(f"{bad} unreached statements or unread fields not in {ALLOW.name}")
    print(f"{len(failed)} tests failed under the trace (not counted in the exit code)")
    for nodeid in failed:
        if _passes_untraced(nodeid):
            print(f"tracer-only (passes untraced): {nodeid}")
        else:
            print(f"failed under trace and untraced: {nodeid}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
