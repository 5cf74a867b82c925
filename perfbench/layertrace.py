"""Layer tracing installed from outside the program, and self-time arithmetic.

`Tracer.install()` wraps every function named in the `__all__` of each layer
module of `nltomo` (and every method that a class named there defines in that
module's source), at every `nltomo.*` namespace that holds a reference to it.
A function added to a layer's `__all__` later is therefore traced without a
change here. `Tracer.uninstall()` puts every original object back.

A span is recorded when a call crosses into a layer from outside it (from the
driver or from another layer); a call within the same layer adds no span.
Each span records its layer, its thread, its start and its end. Time spent in
`pathlib.Path.write_text` / `write_bytes` is recorded as spans of the pseudo
layer `write`.

Self time (`self_times`): on each thread, an instant belongs to the innermost
open span there. On the thread that called into the program, an instant also
does not count while a span is open on any other thread: that thread is then
waiting for work it handed to the program's worker pool. A layer's self time
is the sum, over threads, of the instants that belong to its spans.
"""

from __future__ import annotations

import bisect
import enum
import functools
import importlib
import inspect
import pathlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("states", "evolve", "tomography", "quantifiers", "runner", "config", "presets", "cli")
WRITE = "write"

# counted at every call, not only at layer boundaries
_COUNT_EVERY_CALL = {("tomography", "hermite_basis"): "tomography.basis_builds"}


@dataclass(frozen=True)
class Span:
    layer: str
    thread: int
    start: float
    end: float


class _ThreadLog:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[str] = []
        self.spans: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self, package: str = "nltomo"):
        self.package = package
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def reset(self) -> None:
        """Drop recorded spans and counts (open spans keep recording)."""
        with self._lock:
            for log in self._logs:
                log.spans.clear()
                log.counts.clear()

    def spans(self) -> list[Span]:
        with self._lock:
            return [Span(layer, log.ident, a, b) for log in self._logs for layer, a, b in log.spans]

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for log in self._logs:
                total.update(log.counts)
        return total

    def _wrap(self, fn, layer: str, counter: str | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            if counter is not None:
                log.counts[counter] += 1
            if log.stack and log.stack[-1] == layer:
                return fn(*args, **kwargs)
            log.counts[f"{layer}.calls"] += 1
            if layer == "tomography":
                _count_tomogram_work(log.counts, args, kwargs)
            log.stack.append(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                log.stack.pop()
                log.spans.append((layer, start, end))

        return traced

    def _count_only(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._log().counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # --- installation ---------------------------------------------------------

    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap the layer functions, methods and counters described in the module docstring."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"{self.package}.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, layer, _COUNT_EVERY_CALL.get((layer, attr)))
                elif _is_plain_class(obj, mod):
                    for meth_name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and meth.__code__.co_filename == mod.__file__:
                            self._replace(obj, meth_name, self._wrap(meth, layer))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == self.package or n.startswith(self.package + ".")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._replace(ns, attr, wrapper)
        evolve = mods["evolve"]
        if hasattr(evolve, "expm"):
            self._replace(evolve, "expm", self._count_only(evolve.expm, "evolve.expm_calls"))
        for meth in ("write_text", "write_bytes"):
            self._replace(pathlib.Path, meth, self._wrap(getattr(pathlib.Path, meth), WRITE))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _is_plain_class(obj, mod) -> bool:
    return (
        inspect.isclass(obj)
        and obj.__module__ == mod.__name__
        and not issubclass(obj, (enum.Enum, tuple))
    )


def _count_tomogram_work(counts: Counter, args, kwargs) -> None:
    """Slices and computed flops of a call given a state and a quadrature grid.

    Flop model: a density-matrix slice is one complex (n_x, dim) @ (dim, dim)
    product, 8 n_x dim^2 real flops; a pure-state slice is one real-by-complex
    (n_x, dim) @ (dim,) product, 4 n_x dim.
    """
    values = list(args) + list(kwargs.values())
    grid = next((v for v in values if hasattr(v, "n_theta") and hasattr(v, "n_x")), None)
    state = next((v for v in values if hasattr(v, "dim")), None)
    if grid is None or state is None:
        return
    n_theta, n_x, dim = grid.n_theta, grid.n_x, state.dim
    counts["tomography.slices"] += n_theta
    per_slice = 8 * n_x * dim * dim if hasattr(state, "elements") else 4 * n_x * dim
    counts["tomography.computed_flop"] += n_theta * per_slice


# --- self-time arithmetic -------------------------------------------------------


def _merge(intervals):
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _exclusive_segments(spans: list[Span]):
    """(start, end, layer) pieces of one thread's spans not covered by a nested span."""
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    children: dict[int, list[Span]] = {i: [] for i in range(len(ordered))}
    stack: list[int] = []
    for i, span in enumerate(ordered):
        while stack and ordered[stack[-1]].end <= span.start:
            stack.pop()
        if stack:
            children[stack[-1]].append(span)
        stack.append(i)
    for i, span in enumerate(ordered):
        cursor = span.start
        for child in children[i]:
            if child.start > cursor:
                yield cursor, child.start, span.layer
            cursor = max(cursor, child.end)
        if span.end > cursor:
            yield cursor, span.end, span.layer


def _uncovered(a: float, b: float, merged, starts) -> float:
    """Length of [a, b] outside the sorted disjoint intervals `merged`."""
    length = b - a
    i = max(bisect.bisect_right(starts, a) - 1, 0)
    while i < len(merged) and merged[i][0] < b:
        lo, hi = max(a, merged[i][0]), min(b, merged[i][1])
        if hi > lo:
            length -= hi - lo
        i += 1
    return length


def self_times(spans: list[Span], caller_thread: int) -> dict[str, float]:
    """Self time per layer, by the rule in the module docstring."""
    by_thread: dict[int, list[Span]] = {}
    for span in spans:
        by_thread.setdefault(span.thread, []).append(span)
    others = _merge((s.start, s.end) for s in spans if s.thread != caller_thread)
    starts = [m[0] for m in others]
    totals: dict[str, float] = {}
    for thread, items in by_thread.items():
        for a, b, layer in _exclusive_segments(items):
            length = _uncovered(a, b, others, starts) if thread == caller_thread else b - a
            totals[layer] = totals.get(layer, 0.0) + length
    return totals
