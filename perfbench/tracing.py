"""In-memory spans recorded around the benchmark's own calls into each layer.

Spans carry a name, start and end (``perf_counter_ns``), the id of the span
that was open when they started, and the run id shared by every span of one
benchmark run. Counts recorded at a boundary go into the span's ``counts``.
Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()

    def durations_ns(self, name: str) -> list[int]:
        return [s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name]

    def median_ns(self, name: str) -> float:
        return statistics.median(self.durations_ns(name))

    def self_ns(self, span: dict) -> int:
        """The span's duration minus the part its direct children cover."""
        children = sum(
            s["end_ns"] - s["start_ns"] for s in self.spans if s["parent"] == span["id"]
        )
        return span["end_ns"] - span["start_ns"] - children

    def dump(self, path: str) -> None:
        spans = [dict(s, self_ns=self.self_ns(s)) for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "spans": spans}, f)
            f.write("\n")


@contextlib.contextmanager
def no_span(name: str):
    """Stand-in for :meth:`Tracer.span` in untraced runs."""
    yield {}
