"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start_ns, end_ns, parent, run_id)``; ``parent`` is the index
of the enclosing span or None.  Names are ``<layer>.<function>`` with the
layer one of the ``naenum`` modules, so self time can be summed per layer.
Spans stay in memory until :meth:`Recorder.dump` writes them as gzipped JSON
lines (a traced corpus run records some 200,000 spans).

Layers the benchmark reaches only through another layer are traced by
:class:`Rebind`, which swaps a module attribute for a recording wrapper while
a traced pass runs and puts the original back afterwards.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []            # a list while open, a tuple once closed
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = "setup"
        self.clock = time.perf_counter_ns   # nanoseconds, monotonic
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kw):
        """Run ``fn`` inside a span named ``name``; same signature as the
        untraced call hook, so workload code runs unchanged either way."""
        sid = len(self.spans)
        rec = [name, 0, 0, self._stack[-1] if self._stack else None, self.run_id]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = self.clock()
        try:
            return fn(*args, **kw)
        finally:
            rec[2] = self.clock()
            self._stack.pop()
            self.spans[sid] = tuple(rec)    # the collector stops tracking it

    def count(self, key: str, k: int = 1) -> None:
        self.counters[self.run_id][key] += k

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kw):
            result = self.call(name, fn, *args, **kw)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, run_id: str) -> dict:
        """Per span name: calls and inclusive seconds; per layer: self
        seconds (span time not covered by child spans)."""
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        ours = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        for i, (name, start, end, parent, _) in ours:
            calls[name] += 1
            total_ns[name] += end - start
            if parent is not None:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in ours:
            self_ns[name.split(".", 1)[0]] += end - start - child_ns[i]
        return {"calls": dict(calls),
                "s": {k: v / 1e9 for k, v in total_ns.items()},
                "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "counters": dict(self.counters.get(run_id, {}))}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "run": run_id}) + "\n")


class Rebind:
    """Context manager that replaces ``module.attr`` with a traced wrapper for
    each ``(module, attr, span, on_result)`` target.  A target whose module or
    attribute no longer exists is skipped and listed in ``absent``."""

    def __init__(self, recorder: Recorder, targets) -> None:
        self.recorder = recorder
        self.targets = targets
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Rebind":
        for module_name, attr, span, on_result in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not hasattr(module, attr):
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.recorder.wrap(span, fn, on_result))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
