"""In-memory spans around the benchmark's calls into qgenbench.

A span is recorded by the benchmark, never by the package: each public call a
unit makes is wrapped in ``tracer.span("<module>.<function>")``, so the layer
of a span is the module part of its name.  Spans are kept in memory and
written out as JSONL once the run ends.  Untraced passes use ``NULL_TRACER``,
whose spans cost one no-op context manager each.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, tr.unit])
        tr.stack.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr.stack.pop()
        return False


class Tracer:
    """Records [name, start_ns, end_ns, parent index, unit id] per span."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.unit: Optional[int] = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def unit_span(self, unit: int) -> _Span:
        """Root span of one unit; spans opened inside it carry its id."""
        self.unit = unit
        return _Span(self, "unit")

    def self_times(self) -> List[int]:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Self and total seconds plus call counts, by span name."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0,
                                                                "calls": 0})
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = out[name]
            row["self_s"] += own * 1e-9
            row["total_s"] += (end - start) * 1e-9
            row["calls"] += 1
        return out

    def write_jsonl(self, fh, rep: int) -> None:
        """Write one JSON object per span; `rep` labels the repetition."""
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            fh.write(json.dumps({"rep": rep, "id": i, "name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent, "unit": unit}) + "\n")


class _NullTracer:
    def span(self, name: str):
        return _NULL_SPAN

    def unit_span(self, unit: int):
        return _NULL_SPAN


_NULL_SPAN = contextlib.nullcontext()
NULL_TRACER = _NullTracer()
