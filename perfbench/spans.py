"""In-memory spans recorded around calls into the system's layers.

A :class:`Tracer` keeps every span in a list and writes them out once, at
the end of a run, so tracing adds no I/O to the measured region.  Spans
opened with :meth:`Tracer.span` nest per thread: a span opened while
another is open on the same thread becomes its child.  A layer's *self
time* is its span's duration minus the part of that interval covered by
its children.

:class:`NullTracer` has the same surface and records nothing; untraced
runs use it, so the measured code path is the same apart from the spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    trace: Optional[int] = None     # shared by every span of one request

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for left, right in sorted(intervals):
        left, right = max(left, cursor), min(right, end)
        if right > left:
            total += right - left
            cursor = right
    return total


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None) -> Iterator[int]:
        """Time the body as one span, child of this thread's open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, trace))

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, trace: Optional[int] = None) -> int:
        """Add a span timed by the caller (e.g. one that crosses threads)."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent, trace))
        return span_id

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.named(name)]

    def self_times(self, name: str) -> List[float]:
        """Duration of each ``name`` span minus the time its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [span.duration - covered(children.get(span.span_id, []),
                                        span.start, span.end)
                for span in self.named(name)]

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    enabled = False

    def span(self, name: str, trace: Optional[int] = None):
        return nullcontext()

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, trace: Optional[int] = None) -> None:
        return None
