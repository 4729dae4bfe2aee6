"""Per-layer timing of modelswitch by wrapping its public functions from outside.

``Tracer.install`` replaces every public function and method defined in the
layer modules with a wrapper that records one span per call: the span name
(``<layer>.<qualname>``), start, end and the id of the enclosing span. Spans
are kept in flat arrays in memory and written out once at the end.
``Tracer.restore`` puts every original attribute back. Self time is derived
from the spans afterwards: a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from array import array
from fnmatch import fnmatchcase
from pathlib import Path

LAYERS = ("sim", "monitor", "analyzer", "planner", "executor", "knowledge", "loop", "cli")

# Per-layer metric -> (aggregate, span-name pattern). "busy" sums span
# durations, "self" sums durations minus child spans, "calls" counts spans.
# No span matched by a "busy" pattern nests in another, so no time counts twice.
SPAN_METRICS = {
    "sim.generate_trace.busy_s": ("busy", "sim.generate_trace"),
    "sim.synth_inference.busy_s": ("busy", "sim.synth_inference"),
    "sim.synth_inference.calls": ("calls", "sim.synth_inference"),
    "monitor.record.self_s": ("self", "monitor.*.record"),
    "monitor.aggregate.busy_s": ("busy", "monitor.Monitor.aggregate"),
    "analyzer.refresh_scores.self_s": ("self", "analyzer.Analyzer.refresh_scores"),
    "planner.decide.busy_s": ("busy", "planner.*.decide"),
    "planner.decisions": ("calls", "planner.*.decide"),
    "executor.apply.busy_s": ("busy", "executor.Executor.apply"),
    "executor.run_inference.self_s": ("self", "executor.Executor.run_inference"),
    "knowledge.append.busy_s": ("busy", "knowledge.LogRegistry.append_*"),
    "knowledge.export.busy_s": ("busy", "knowledge.LogRegistry.export"),
    "loop.run_loop.self_s": ("self", "loop.run_loop"),
    "cli.summarize.busy_s": ("busy", "cli.summarize"),
    "cli.write_summary.busy_s": ("busy", "cli.write_summary"),
}

# Spans whose busy time, with the time under loop.run_loop, should account for
# a whole traced operation (the rest is config loading and set-up).
ACCOUNTED = ("loop.run_loop", "sim.generate_trace", "knowledge.LogRegistry.export",
             "cli.summarize", "cli.write_summary")


class Tracer:
    """Records one span per call into the layer modules while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span_id)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span_id] = clock()
                stack.pop()

        return span

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module, and time GC."""
        modules = {layer: sys.modules[f"modelswitch.{layer}"] for layer in LAYERS}
        functions = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = self._wrap(obj, f"{layer}.{obj.__qualname__}")
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # Modules bind imported functions in their own namespaces, so each
        # binding of a wrapped function is replaced, wherever it lives.
        for name, module in list(sys.modules.items()):
            if name == "modelswitch" or name.startswith("modelswitch."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in functions:
                        self._set(module, attr, functions[obj])
        gc.callbacks.append(self._on_gc)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (staticmethod, classmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name)))

    def restore(self) -> None:
        """Put every wrapped attribute back; raises if any is not the original afterwards."""
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [f"{owner.__name__}.{attr}" for owner, attr, original in self._patched
                if vars(owner)[attr] is not original]
        if left:
            raise RuntimeError(f"wrapped attributes not restored: {left}")

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """(calls, busy seconds, self seconds) per span name."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * len(starts)))
        for parent, start, end in zip(parents, starts, ends):
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for name_id, start, end, child_s in zip(self.span_name, starts, ends, child):
            calls[name_id] += 1
            busy[name_id] += end - start
            own[name_id] += end - start - child_s
        return {name: (calls[i], busy[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the four columns as raw arrays."""
        columns = (self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [["name", "i"], ["parent", "i"], ["start_s", "d"], ["end_s", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns:
                column.tofile(fh)


def layer_metrics(table: dict[str, tuple[int, float, float]]) -> dict[str, float]:
    """The SPAN_METRICS values from a Tracer.by_name table."""
    column = {"calls": 0, "busy": 1, "self": 2}
    return {
        metric: sum(row[column[kind]] for name, row in table.items() if fnmatchcase(name, pattern))
        for metric, (kind, pattern) in SPAN_METRICS.items()
    }
