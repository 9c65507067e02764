"""Span tracing of balance_lab's public functions, installed from outside.

The tracer wraps every public function of the package at each name a caller
looks it up by: the defining module, every module that imported it with
``from ... import``, the package root, and module-level dispatch tables such
as the CLI's subcommand map.  Each call records a span (op id, name, start,
end, parent).  Nothing in the library changes; ``uninstall`` restores the
original objects.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "balance_lab"
LAYERS = ("cli", "experiments", "dynamics", "rng", "graphs", "balance", "chordal")
# Calls whose arguments and results the count pass replays.
CAPTURED = ("dynamics.run_sih", "dynamics.run_sioh")


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int


@dataclass
class Capture:
    name: str
    args: tuple
    kwargs: dict
    result: object
    seconds: float


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    captures: list = field(default_factory=list)
    op: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _wrappers: dict = field(default_factory=dict)

    def _wrap(self, name: str, fn):
        spans, stack, captures = self.spans, self._stack, self.captures
        capture = name in CAPTURED
        subcommand = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if subcommand:
                argv = args[0] if args else kwargs.get("argv")
                label = f"{name}.{argv[0]}" if argv else name
            index = len(spans)
            span = Span(self.op, label, perf_counter(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if capture:
                captures.append(Capture(name, args, kwargs, result, span.end - span.start))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every lookup name; only the op itself runs between install and uninstall."""
        modules = [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for attr, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)
                    ):
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        wrappers = self._wrappers
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[value]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()


def self_times(spans: list) -> dict:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential on one thread, so children never overlap.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_total[span.parent] += span.end - span.start
    table: dict = {}
    for span, children in zip(spans, child_total):
        entry = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children
    return table
