"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces a function by a timing wrapper in every module
namespace that looks it up by name, so calls between modules are seen at
the layer boundary.  A wrapper records the call count, busy (wall) time and
self time, which is busy time minus the part of the interval covered by
wrapped child calls.  Children started in a pool thread of a parent running
on the main thread (the scan thread pool) are attributed to that parent,
and their intervals are merged, so self time never goes negative.  Only
aggregates are kept: no per-call list grows with the run.
"""

from __future__ import annotations

import copy
import functools
import threading
import time


class _Span:
    __slots__ = ("covered", "active", "since")

    def __init__(self):
        self.covered = 0.0  # seconds of this span covered by at least one child
        self.active = 0  # children running now
        self.since = 0.0  # when ``active`` last rose from 0


class Stats:
    """Totals for one label."""

    __slots__ = ("calls", "busy", "self", "cpu")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.cpu = 0.0  # process CPU seconds, for labels installed with cpu=True


class Tracer:
    """Aggregated spans keyed by label, e.g. ``exact.exact_coverage``."""

    def __init__(self):
        self.stats: dict = {}
        self.first_args: set = set()  # first positional argument of labels installed with first_arg=True
        self.missing: list = []  # "module.name" targets absent from the package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn, cpu: bool = False, first_arg: bool = False):
        """A wrapper around ``fn`` that records a span under ``label``."""
        self.stats.setdefault(label, Stats())
        lock, clock = self._lock, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not threading.main_thread() and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = _Span()
            c0 = time.process_time() if cpu else 0.0
            t0 = clock()
            if parent is not None:
                with lock:
                    if parent.active == 0:
                        parent.since = t0
                    parent.active += 1
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                t1 = clock()
                c1 = time.process_time() if cpu else 0.0
                with lock:
                    if parent is not None:
                        parent.active -= 1
                        if parent.active == 0:
                            parent.covered += t1 - parent.since
                    st = self.stats[label]
                    st.calls += 1
                    st.busy += t1 - t0
                    st.self += (t1 - t0) - span.covered
                    st.cpu += c1 - c0
                    if first_arg and args:
                        self.first_args.add(args[0])

        return traced

    def install(self, label: str, modules: list, name: str, **options) -> list:
        """Wrap ``name`` in each module that has it; return (module, name, original) to undo."""
        self.stats.setdefault(label, Stats())
        undo = []
        for module in modules:
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{name}")
                continue
            setattr(module, name, self.wrap(label, original, **options))
            undo.append((module, name, original))
        return undo

    def snapshot(self) -> dict:
        with self._lock:
            return {label: copy.copy(st) for label, st in self.stats.items()}


def delta(after: dict, before: dict, label: str, field: str) -> float:
    """Change in one field of one label between two snapshots."""
    return getattr(after[label], field) - getattr(before[label], field)
