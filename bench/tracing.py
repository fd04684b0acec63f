"""Spans and counters recorded around the benchmark's calls into the
workbench's modules.

A span has a name ("<layer>.<function>"), start and end times, the index of
the span open when it began (its parent) and the id of the operation it
belongs to. Spans are kept in memory and written out once, when the run
ends. With `enabled` off, `call` forwards straight to the callee and records
nothing, which is how the end-to-end figures are measured.

Counters are separate: `count` adds to them whenever `counting` is on, and
the workloads count from results after an operation has returned, outside
its timed region.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.counting = enabled
        self.spans: list = []  # [name, start, end, parent, op]
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self.op = -1
        self.marks: dict = {}  # label -> counters at that moment

    def begin_op(self) -> None:
        self.op += 1

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount=1) -> None:
        if self.counting:
            self.counters[name] += amount

    def mark(self, label: str) -> None:
        self.marks[label] = dict(self.counters)

    def since(self, start: str, end: str) -> dict:
        """Counter increments between two marks."""
        a, b = self.marks.get(start, {}), self.marks.get(end, {})
        return {k: v - a.get(k, 0) for k, v in b.items()}

    # -- summaries -----------------------------------------------------

    def totals(self) -> dict:
        """Per span name: (number of calls, total seconds)."""
        out: dict = {}
        for name, start, end, _parent, _op in self.spans:
            n, tot = out.get(name, (0, 0.0))
            out[name] = (n + 1, tot + end - start)
        return out

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "marks": self.marks,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
