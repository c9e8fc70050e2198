"""In-memory spans and counters recorded around calls into wmgraph.

A span has a name, a start, an end and the span that was open when it
began.  Counters are keyed by full metric name and are recorded at the
same boundaries as the spans.  ``NULL`` is the tracer of an untraced
run: its spans are a no-op, and callers record counters only when
``tracer.on``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    on = True

    def __init__(self):
        self.spans = []          # [id, parent id or None, name, start, end]
        self._open = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._open[-1] if self._open else None,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._open.pop()

    def count(self, key: str, value) -> None:
        self.counts[key] += value

    def count_max(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def count_in_open_span(self, quantity: str, value=1) -> None:
        """Add to ``<name of the innermost open span>.<quantity>``."""
        if self._open:
            self.counts[f"{self.spans[self._open[-1]][2]}.{quantity}"] += value

    def self_times(self) -> dict:
        """Self time summed per span name: duration minus the part of it
        that child spans cover (children never overlap one another)."""
        child = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write(self, path) -> None:
        rows = [{"id": s, "parent": p, "name": n, "start": a, "end": b}
                for s, p, n, a, b in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts),
                       "maxima": dict(self.maxima)}, fh)


class _NullTracer:
    on = False
    _ctx = contextlib.nullcontext()

    def span(self, name: str):
        return self._ctx


NULL = _NullTracer()
