"""The benchmark's own span recorder.

One span per call into a layer, recorded from the benchmark's files (no
spans are added inside ``src/repro``). Spans stay in memory and are
written once, at exit, as Chrome ``trace_event`` JSON that Perfetto
loads. A span knows the span that caused it (``parent``), the workload
and the repetition it belongs to; counts measured at the same boundary
ride in ``args``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Iterator


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []  # ids of the spans now open, outermost first
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, rep: int | None = None, **counts: Any) -> Iterator[dict]:
        """Record ``name`` around the block; yields the span so the block
        can add counts known only once the call returns."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "rep": rep,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: its duration minus what its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (
                s["end"] - s["start"] - covered[s["id"]]
            )
        return out

    def write(self, path: str) -> None:
        events = [
            {
                "name": s["name"],
                "cat": s["name"].split(".", 1)[0],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": s["id"],
                    "parent": s["parent"],
                    "workload": s["workload"],
                    "rep": s["rep"],
                    **s["counts"],
                },
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
