"""Per-layer tracing by wrapping critlab's public functions from outside.

Every public function and method that a critlab module defines is replaced
by a timing wrapper, in every critlab namespace that binds it: the module
that defines it, ``critlab`` itself, and modules that imported it (so
``critical.snf`` from ``from .exact import snf`` is caught as well as
``exact.snf``).  Layer names are ``<module>.<qualified name>``, with the
module's last dotted component, e.g. ``lattices.Lattice.add_vector``.

Spans stay in memory, aggregated per operation and layer as call count and
self time (a span's duration minus the time its child spans cover); the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self.current: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.layers: list[str] = []

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(f"{prefix}.{name}", attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(f"{prefix}.{name}", attr.__func__)))

    def _wrap(self, layer: str, fn):
        self.layers.append(layer)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                agg = self.current.get(layer)
                if agg is None:
                    agg = self.current[layer] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[0]

        return traced

    def take(self) -> dict[str, list]:
        """The spans of the operation that just ended, and a fresh record."""
        out, self.current = self.current, {}
        self._stack.clear()
        return out
