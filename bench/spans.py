"""Span recorder for the traced benchmark pass.

The benchmark wraps its own calls into `lt` (one span per command) and,
while tracing is switched on, every cross-module reference between the
`lt` modules: a name that module N imported from module M is replaced in
N's namespace by a wrapper, so a call from one layer into another records
a span while calls inside a layer stay untouched.

A span has a name (`<layer>.<function>`), start, end, parent span and
the trace id of the command it belongs to.  Hot functions are called
once per homomorphism, so only the first `keep` spans of each name per
command are stored; every call still adds to its name's count, total
time and self time (duration minus the time of its child spans).
Everything stays in memory until `dump` writes it out.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
from time import perf_counter


class Tracer:
    def __init__(self, keep: int = 16):
        self.keep = keep
        self.spans: list[tuple] = []   # (id, trace, parent, name, start, end, self_s)
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[list] = []   # [id, child_s]
        self._kept: dict[tuple[int, str], int] = {}
        self._next_id = 0
        self._swaps: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.trace_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                elapsed = end - start
                if self._stack:
                    self._stack[-1][1] += elapsed
                tot = self.totals.get(name)
                if tot is None:
                    tot = self.totals[name] = [0, 0.0, 0.0]
                self_s = elapsed - frame[1]
                tot[0] += 1
                tot[1] += elapsed
                tot[2] += self_s
                key = (self.trace_id, name)
                kept = self._kept.get(key, 0)
                if kept < self.keep:
                    self._kept[key] = kept + 1
                    self.spans.append((span_id, self.trace_id, parent, name, start, end, self_s))

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def instrument(self, modules: dict[str, types.ModuleType]) -> int:
        """Prepare wrappers, in every module, for the public functions it
        imported from another `lt` module, and for the `Algebra`
        constructor, and switch them on.  Generators are left alone: a span
        would only time their creation.  Returns the number of bindings."""
        self._swaps = []
        for mod in modules.values():
            for attr, val in vars(mod).items():
                if (
                    isinstance(val, types.FunctionType)
                    and not val.__code__.co_flags & inspect.CO_GENERATOR
                    and not attr.startswith("_")
                    and val.__module__.startswith("lt.")
                    and val.__module__ != mod.__name__
                ):
                    layer = val.__module__.split(".", 1)[1]
                    self._swaps.append((mod, attr, val, self.wrap(f"{layer}.{val.__name__}", val)))
        algebra = modules["algebra"].Algebra
        self._swaps.append(
            (algebra, "__init__", algebra.__init__, self.wrap("algebra.Algebra", algebra.__init__)))
        self.switch(True)
        return len(self._swaps)

    def switch(self, on: bool) -> None:
        """Install (on) or remove (off) the wrappers made by `instrument`."""
        for owner, attr, original, wrapped in self._swaps:
            setattr(owner, attr, wrapped if on else original)

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            **extra,
            "layer_self_s": self.layer_self_s(),
            "functions": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "span_fields": ["id", "trace", "parent", "name", "start", "end", "self_s"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
