"""Spans around shallownet's public functions, installed from outside the package.

``Tracer.install`` wraps every public function that a shallownet module
defines, plus ``DensityState.__post_init__`` (the state validation), and
rebinds each wrapper in every shallownet module that holds the function:
``from .network import apply`` puts ``apply`` into ``uncertainty`` and
``measurement`` too, and a wrapper installed only at home would miss those
calls.  ``uninstall`` puts the originals back.

A span is ``[name, parent index, start, end]``; spans stay in memory until the
caller writes them out.  The program runs single-threaded Python, so spans
nest strictly and a span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for home in self.modules[1:]:
            layer = home.__name__.rpartition(".")[2]
            for name, fn in _public_functions(home):
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for module in self.modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._restore.append((module, attr, fn))
                            setattr(module, attr, wrapper)
        density = self.package.states.DensityState
        post_init = density.__post_init__
        self._restore.append((density, "__post_init__", post_init))
        density.__post_init__ = self._wrap("states.DensityState", post_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarize(spans: list) -> dict:
    """Per span name: number of calls, total seconds, and self seconds."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, _, start, end), children in zip(spans, child_time):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
    return dict(out)
