"""The benchmark's own span recorder (tracing inside ``src/`` is a later issue).

A span is ``(id, request, name, parent, start, end)``; spans of one request
share the ``request`` id.  Spans are kept in memory and written once, at the
end of a traced run.  A layer's *self time* is its span minus the part of it
its child spans cover, so nesting never counts an interval twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request = 0

    @contextmanager
    def request(self, label: str):
        """Open the root span of one request; nested ``span``s share its id."""
        self._request += 1
        with self.span(label):
            yield self._request

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "request": self._request,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: the self time (seconds) of each of its spans."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        out: dict[str, list[float]] = {}
        for record in self.spans:
            own = record["end"] - record["start"] - covered[record["id"]]
            out.setdefault(record["name"], []).append(own)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))
