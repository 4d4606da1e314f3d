"""In-memory span recording for the traced benchmark run.

A span is one call from the benchmark into a library layer: its name,
start and end (``perf_counter`` seconds), the index of the enclosing
span (-1 at the top) and the id of the op it belongs to.  Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class NoSpans:
    """Stand-in used by the untraced run: every span is a shared no-op."""

    op = -1

    def span(self, name: str):
        return _NO_SPAN


class Spans:
    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self, first: int, scale: list[float]) -> dict[str, float]:
        """Seconds per span name from record ``first`` on: each span's
        duration minus the part its direct children cover, times the
        ``scale`` of its op."""
        records = self.records
        child_time = [0.0] * len(records)
        for i in range(first, len(records)):
            name, start, end, parent, _ = records[i]
            if parent >= first:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i in range(first, len(records)):
            name, start, end, _, op = records[i]
            totals[name] = totals.get(name, 0.0) + ((end - start) - child_time[i]) * scale[op]
        return totals

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")
