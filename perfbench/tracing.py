"""In-memory span tracing around kgreason's public functions, and the
arithmetic the benchmark reports (percentiles, self time).

Nothing under ``src/`` is edited: each traced function is rebound, for the
duration of a ``with Tracer.installed(...)`` block, in every kgreason module
that holds a reference to it. Modules bind names at import time (``pathrag``
imports ``cosine`` and ``neighbors``, ``evaluate`` imports
``retrieved_steps_along_path``), so patching only the defining module would
miss calls.

Three kinds of probe:

- a *span* records name, start, end, thread and the enclosing span (its
  parent) and the question span at the root of its stack, so spans of one
  question share an identifier;
- a *leaf* is a hot function (called up to millions of times per pass); its
  calls and seconds are added to the enclosing span instead of being stored
  one by one. A leaf must not call another probe;
- a *counter* adds work counts to the enclosing span without timing.

A span's self time is its duration minus the part of it covered by its child
spans and its leaves.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile (at least, when samples tie)."""
    return n - max(1, math.ceil(q / 100 * n))


def covered_seconds(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]], leaf_seconds: float = 0.0
) -> float:
    """A span's duration minus what its children and leaves cover."""
    return max(0.0, (end - start) - covered_seconds(start, end, children) - leaf_seconds)


class Span:
    __slots__ = ("id", "parent", "root", "name", "thread", "start", "end", "leaves", "attrs")

    def __init__(self, span_id: int, parent: "Span | None", name: str):
        self.id = span_id
        self.parent = parent.id if parent else 0
        self.root = parent.root if parent else span_id
        self.name = name
        self.thread = threading.get_ident()
        self.start = perf_counter()
        self.end = self.start
        self.leaves: dict[str, list] = {}
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def charge(self, name: str, calls: int, seconds: float) -> None:
        entry = self.leaves.get(name)
        if entry is None:
            self.leaves[name] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "root": self.root,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "leaves": self.leaves,
            "attrs": self.attrs,
        }


def _resolve(module, path: str):
    owner = module
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part, None)
    return owner, path.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans from any number of threads; each thread keeps its own
    stack, so only the owning thread touches an open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.unparented = Span(0, None, "unparented")

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, name: str, calls: int, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1].charge(name, calls, seconds)
        else:
            with self._lock:
                self.unparented.charge(name, calls, seconds)

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1] if stack else None, name)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge(name, 1, perf_counter() - start)

        return wrapper

    def counter(self, fn: Callable, count: Callable[..., dict[str, int]]) -> Callable:
        """Charge the counts ``count(*args, **kwargs)`` returns, untimed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for name, n in count(*args, **kwargs).items():
                self._charge(name, n, 0.0)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, package: str, probes: Iterable[tuple[str, str, Callable]]):
        """Rebind each ``(module, attribute path, make_wrapper)`` probe in
        every loaded module of ``package`` that references the original.
        Probes whose target does not exist are skipped; the names of those
        installed are yielded. Everything is restored on exit."""
        restore: list[tuple[object, str, object]] = []
        installed: list[str] = []
        try:
            for module_name, path, make in probes:
                owner, attr = _resolve(sys.modules.get(f"{package}.{module_name}"), path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                wrapper = make(original)
                targets = [owner] if isinstance(owner, type) else [
                    m for name, m in list(sys.modules.items())
                    if (name == package or name.startswith(package + ".")) and m is not None
                ]
                for target in targets:
                    for name, value in list(vars(target).items()):
                        if value is original:
                            restore.append((target, name, original))
                            setattr(target, name, wrapper)
                installed.append(f"{module_name}.{path}")
            yield installed
        finally:
            for target, name, original in reversed(restore):
                setattr(target, name, original)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.parent, []).append(span)
        return out

    def self_seconds(self, span: Span, children: dict[int, list[Span]]) -> float:
        return self_time(
            span.start,
            span.end,
            ((c.start, c.end) for c in children.get(span.id, ())),
            sum(seconds for _, seconds in span.leaves.values()),
        )

    def leaf_totals(self) -> dict[str, list]:
        totals: dict[str, list] = {}
        for span in itertools.chain(self.spans, (self.unparented,)):
            for name, (calls, seconds) in span.leaves.items():
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
