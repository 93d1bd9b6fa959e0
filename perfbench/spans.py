"""In-memory spans recorded at the benchmark's own call sites.

A span is ``(id, parent id, name, start, end, attributes)`` in host
seconds.  Recording is off unless a traced run switches it on, so the
untraced runs that give the end-to-end metrics pay one attribute test per
call site.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List


class SpanRecorder:
    """Collects nested spans; ``enabled`` gates all recording."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def reset(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": time.perf_counter(), "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str, **attrs: Any) -> float:
        """Summed duration of the spans called ``name`` matching ``attrs``."""
        return sum((s["end"] - s["start"] for s in self.spans
                    if s["name"] == name and s["end"] is not None
                    and all(s["attrs"].get(k) == v
                            for k, v in attrs.items())), 0.0)


#: The recorder the point tasks write to.  Sweep configs must pickle and
#: fingerprint deterministically, so the recorder cannot travel in them;
#: each worker process resets it before a traced body.
SPANS = SpanRecorder()
