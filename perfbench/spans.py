"""Spans at coronakit's layer boundaries, recorded from outside the package.

``Tracer.wrap`` prepares a wrapper for a module attribute such as
``evolve.select`` or ``exprgraph.term_values``; ``Tracer.operation``
puts the wrappers in place for one operation and takes them out again,
so untraced operations run the unmodified package.  coronakit looks
these functions up through their module at call time, so the wrappers
see the calls one layer makes into another.  Spans are kept in memory;
when the run ends they are written out and turned into per-layer figures.

Worker processes forked by ``discover --workers N`` inherit the wrappers
but record nothing: their spans are lost, not estimated.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.op = -1
        self.active = False
        self._wrappers: list[tuple[object, str, object, object]] = []
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self):
        self.active = False

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Record a span named ``name`` around each call of ``module.attr``
        made during an operation.

        ``observe(args, result)`` runs after the span has ended, so its
        own cost is not charged to the layer.
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            spans = tracer.spans
            record = [name, 0.0, 0.0, tracer.current, tracer.op]
            parent = tracer.current
            tracer.current = len(spans)
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                tracer.current = parent
            if observe is not None:
                observe(args, result)
            return result

        self._wrappers.append((module, attr, original, traced))

    @contextmanager
    def operation(self, name: str):
        """Trace one operation: a root span that every span inside shares
        its id with."""
        for module, attr, _, traced in self._wrappers:
            setattr(module, attr, traced)
        self.op += 1
        record = [name, 0.0, 0.0, -1, self.op]
        self.current = len(self.spans)
        self.spans.append(record)
        self.active = True
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self.active = False
            self.current = -1
            for module, attr, original, _ in reversed(self._wrappers):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def layer_times(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, call count) per span name.

        Self time is a span's duration minus its children's; spans of one
        process never overlap their siblings.  A span nested inside another
        of the same name adds to the count but not to the inclusive time,
        which would count it twice.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                covered[record[PARENT]] += record[END] - record[START]
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i, record in enumerate(spans):
            name = record[NAME]
            duration = record[END] - record[START]
            calls[name] += 1
            self_time[name] += duration - covered[i]
            parent = record[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                inclusive[name] += duration
        return inclusive, self_time, calls

    def child_calls(self, name: str, parent_name: str) -> int:
        spans = self.spans
        return sum(1 for r in spans
                   if r[NAME] == name and r[PARENT] >= 0
                   and spans[r[PARENT]][NAME] == parent_name)
