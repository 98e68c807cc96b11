"""Spans around ornatag's public functions, recorded from outside the package.

:meth:`Tracer.install` replaces each public function of the layer modules
with a wrapper at every ``ornatag`` module attribute that binds it, since
modules import each other's functions by name (``from .tagger import
posterior_marginals``).  Each call records a span (name, start, end,
parent span, operation number) in memory; :meth:`Tracer.write` saves them
when the run ends.  A layer's self time is its spans' durations minus the
durations of their direct children.

Functions called once per note, per feature or per rule and position are
left unwrapped, because the wrapper would cost as much as the call; their
time counts toward the wrapped caller.  Generator functions are skipped
too, since a span would close before the work is done.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("tagger", "rules", "combine", "metrics", "score", "model_io", "cli")

PER_ELEMENT = frozenset({
    "tagger.duration_bucket",
    "rules.evaluate_antecedent",
    "score.midi_number",
    "score.parse_note",
    "score.serialize_note",
})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (name id, start ns, end ns, parent index, op); None while open
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.op = -1
        # firings, rules x positions and positions over collect_firings calls
        self.firings = [0, 0, 0]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        firings = self.firings if name == "rules.collect_firings" else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if firings is not None:
                ruleset, melody = args[0], args[1]
                firings[0] += len(result)
                firings[1] += len(ruleset) * len(melody)
                firings[2] += len(melody)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public function of the layers, where it is defined and
        wherever another ornatag module binds it."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ornatag.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name in PER_ELEMENT or inspect.isgeneratorfunction(obj):
                        continue
                    replaced[id(obj)] = (obj, self._wrap(name, obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if (not meth.startswith("_")
                                and isinstance(raw, classmethod)):
                            wrapped = self._wrap(f"{layer}.{attr}.{meth}",
                                                 raw.__func__)
                            setattr(obj, meth, classmethod(wrapped))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ornatag" and not mod_name.startswith("ornatag."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def summary(self) -> dict:
        """Per name: calls, total and self nanoseconds; plus the firing counts."""
        calls = defaultdict(int)
        total = defaultdict(int)
        child = defaultdict(int)
        for name_id, start, end, parent, _ in self.spans:
            calls[name_id] += 1
            total[name_id] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            self_ns[name_id] += end - start - child[index]
        functions = {
            self.names[i]: {"calls": calls[i], "total_ns": total[i],
                            "self_ns": self_ns[i]}
            for i in range(len(self.names))}
        return {"functions": functions, "firings": self.firings}

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one [name, start, end, parent, op] per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "names": self.names}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
