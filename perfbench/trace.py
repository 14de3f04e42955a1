"""The benchmark's own spans, recorded around its calls into the program.

A span is ``(id, parent, request, name, start, end)``.  Spans of one
epoch share the request id of its root ``epoch`` span; ``parent`` links
each span to the span that caused it, so a span's self time (its
duration minus its children's) can be read off the written file.  Spans live in memory until
:meth:`Tracer.write` at the end of a run.  With tracing off every span
is a shared no-op, so the untraced runs pay one attribute check.
"""

from __future__ import annotations

import contextvars
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

_current: contextvars.ContextVar[tuple[int, int] | None] = (
    contextvars.ContextVar("perfbench_span", default=None)
)


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[None]:
        """Record ``name`` around the body.  ``root`` starts a new
        request id; otherwise the span joins its parent's request."""
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = _current.get()
        parent_id, request = (0, sid) if root or parent is None else parent
        token = _current.set((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append((sid, parent_id, request, name, start, end))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        return 1e3 * float(np.median(values)) if values else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "request", "name", "start", "end")
        path.write_text(json.dumps(
            [dict(zip(fields, span)) for span in self.spans]
        ))
