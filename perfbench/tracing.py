"""In-memory spans for the traced benchmark run.

A span records a name, start and end (perf_counter_ns), the index of the
span that was open when it started, and an operation count. Spans are
placed by the benchmark's own files around calls into the library: one per
coarse call (a parse, a build, a bind, a subprocess) and one per block of
same-kernel evaluations, never one per microsecond-scale call.

With tracing off, `span()` hands back one shared no-op context manager, so
the untraced run pays a method call per block and nothing else.
"""

from __future__ import annotations

import json
import statistics
import time


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        record = self.tracer.spans[self.index]
        record[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer.spans[self.index][2] = end
        self.tracer._open.pop()
        return False


class Tracer:
    """Collects spans of one workload execution in memory."""

    def __init__(self, enabled: bool, label: str = ""):
        self.enabled = enabled
        self.label = label
        # each record: [name, start_ns, end_ns, parent_index or -1, ops]
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, ops: int = 0):
        if not self.enabled:
            return NO_SPAN
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, 0, 0, parent, ops])
        self._open.append(index)
        return _Span(self, index)

    def self_ns(self) -> list[int]:
        """Per span: duration minus the time covered by its child spans."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, tuple[list[float], int]]:
        """name -> (self seconds of each span, total ops)."""
        table: dict[str, tuple[list[float], int]] = {}
        for (name, _, _, _, ops), own in zip(self.spans, self.self_ns()):
            times, total = table.get(name, ([], 0))
            times.append(own / 1e9)
            table[name] = (times, total + ops)
        return table

    def median_s(self, name: str) -> float | None:
        entry = self.by_name().get(name)
        return statistics.median(entry[0]) if entry else None

    def rate(self, name: str) -> float | None:
        """Operations per second of self time over every span of a name."""
        entry = self.by_name().get(name)
        if not entry or entry[1] == 0:
            return None
        busy = sum(entry[0])
        return entry[1] / busy if busy > 0 else None

    def records(self) -> list[dict]:
        own = self.self_ns()
        return [
            {
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "ops": ops,
                "self_ns": own[i],
            }
            for i, (name, start, end, parent, ops) in enumerate(self.spans)
        ]


def write_spans(path, tracers: list[Tracer], meta: dict) -> None:
    """Write every tracer's spans as one JSON document."""
    doc = {
        "meta": meta,
        "executions": [{"label": t.label, "spans": t.records()} for t in tracers],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
