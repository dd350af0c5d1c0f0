"""Span tracer for the benchmark's traced run.

Wraps the public functions of each layer module (`cli`, `network`,
`layered`, `diamond`, `highsnr`, `oracle`) from outside the program. A name
bound by `from .network import rates` is a separate binding in the
importing module, so every module of the package that holds a layer
function gets the wrapper under each name it uses. The private
per-evaluation objectives of the oracle are not wrapped.

A span records its function, item id, thread, parent and interval. Its
parent is the innermost open span of its own thread or, for the first span
of a worker thread (the sweep's pool), the innermost open span of the
item's root thread. Self time is the span's duration minus the union of its
children's intervals, so overlapping worker spans are not subtracted twice.
Spans are folded into per-thread, per-function totals when they close,
which keeps memory flat and needs no lock. Times are wall times, so a
function run by the sweep's worker threads also counts its waits for the
interpreter lock.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "network", "layered", "diamond", "highsnr", "oracle")
PACKAGE = "anc_secrecy"


class Span:
    """One open call: function key, item id, thread, parent span, start time
    and the intervals of the child spans that closed inside it."""

    __slots__ = ("key", "item", "thread", "parent", "t0", "children")

    def __init__(self, key, item, thread, parent):
        self.key = key
        self.item = item
        self.thread = thread
        self.parent = parent
        self.t0 = 0.0
        self.children: list[tuple[float, float]] = []


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    if len(intervals) == 1:
        return intervals[0][1] - intervals[0][0]
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    """Install with `install()`, remove with `uninstall()`; `item` names the
    item the next spans belong to. `observers[(layer, name)]` is called as
    `observer(args, kwargs, result)` after each call that returns."""

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.item = -1
        # keys of worker-thread spans whose parent belongs to another item
        self.misattributed: list[tuple[str, str]] = []
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[Span] = []
        self._tables: list[dict] = []
        self._root_table = self._new_table()
        self._patches: list[tuple[object, str, object]] = []

    def _new_table(self) -> dict:
        table = defaultdict(FunctionStats)
        self._tables.append(table)  # atomic under the GIL
        return table

    def _thread_state(self) -> tuple[list[Span], dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], self._new_table())
        return state

    def worker_spans(self) -> tuple[int, int]:
        """(spans, threads) recorded outside the root thread."""
        workers = self._tables[1:]
        return sum(st.calls for t in workers for st in t.values()), len(workers)

    def stats(self) -> dict[tuple[str, str], FunctionStats]:
        """Per-function totals merged over all threads."""
        merged: dict[tuple[str, str], FunctionStats] = defaultdict(FunctionStats)
        for table in self._tables:
            for key, st in table.items():
                m = merged[key]
                m.calls += st.calls
                m.total_s += st.total_s
                m.self_s += st.self_s
        return dict(merged)

    def _wrap(self, key: tuple[str, str], fn):
        observer = self.observers.get(key)
        root_thread, root_stack = self._root_thread, self._root_stack
        get_ident, clock = threading.get_ident, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = get_ident()
            if thread == root_thread:
                stack, table = root_stack, self._root_table
            else:
                stack, table = self._thread_state()
            if stack:
                parent = stack[-1]
            else:
                parent = root_stack[-1] if root_stack else None
            span = Span(key, self.item, thread, parent)
            if thread != root_thread and (parent is None or parent.item != span.item):
                self.misattributed.append(key)  # atomic under the GIL
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - span.t0
                # all children have closed: callers join their workers
                covered = _covered(span.children) if span.children else 0.0
                st = table[key]
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - covered
                if parent is not None:
                    parent.children.append((span.t0, t1))  # atomic under the GIL
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap((layer, name), obj))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()
