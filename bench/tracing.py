"""Spans around the public functions of coarsedim's modules, from outside.

install() replaces each public function of the traced modules with a
wrapper, in every coarsedim module that imported it, so that calls between
modules are caught as well as calls from the benchmark; uninstall() puts the
originals back.  No source file of the package changes.

Each wrapper times its call and keeps a stack of open spans, so a span's
self time (its duration minus the time its child spans cover) is known when
it ends.  Per-function call counts and self times accumulate in `stats`;
while `recording` is on, every span is also kept in memory as
(span id, parent id, op id, name, start, end) for write_spans().
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

TRACED_MODULES = ("cli", "formats", "metric", "groups", "covers",
                  "constructions", "estimation", "generators")

# Helpers called per point pair or per table entry: a wrapper costs more than
# the call, and their time shows in their callers' self time instead.
UNTRACED = {"metric.set_distance", "metric.ball", "metric.diameter",
            "metric.check_scalar", "metric.is_scalar",
            "formats.scalar_str", "formats.parse_scalar"}


def _public_functions(module, short: str):
    if short == "cli":
        # The command functions are main's dispatch targets; their argparse,
        # file and dispatch work is counted as main's own time.
        return [("main", module.main)]
    out = []
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and f"{short}.{name}" not in UNTRACED):
            out.append((name, obj))
    return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self seconds]
        self.spans: list[tuple] = []
        self.recording = False
        self.op = "setup"
        self.observers = {}                  # name -> callback(result)
        self._stack: list[list] = []         # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []      # (module, attribute, original)

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.recording:
                    self.spans.append((span_id, parent, self.op, name, start, end))
            observer = self.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "coarsedim") -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))}
        replacements = {}
        for short in TRACED_MODULES:
            for name, fn in _public_functions(modules[f"{package}.{short}"], short):
                replacements[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def take_stats(self) -> dict[str, tuple[int, float]]:
        """Counts and self times since the last call, then reset."""
        out = {name: (s[0], s[1]) for name, s in self.stats.items() if s[0]}
        for s in self.stats.values():
            s[0], s[1] = 0, 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
