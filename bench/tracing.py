"""In-memory spans around the calls the benchmark makes into each layer.

A span is (name, start, end, parent, op): times come from
time.perf_counter, parent is the index of the enclosing span (or None) and
op is the index of the benchmark operation the span belongs to.  Spans stay
in memory until the run ends and are then written out in one file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: Optional[int] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total time per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op}) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced runs: every span is a no-op."""

    op = None
    _nothing = nullcontext()

    def span(self, name: str):
        return self._nothing


NULL = NullTracer()
