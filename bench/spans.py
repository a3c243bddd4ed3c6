"""In-memory spans, counters and the summary statistics the benchmark reports.

A span is one timed call at a layer boundary: its name, start, end, the
span that caused it and the operation it belongs to. Spans are kept in
memory and written out once the run ends, so recording one costs two
clock reads and a list append.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """Records spans and counters; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.minima: Dict[str, float] = {}
        self._stack: List[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def minimum(self, name: str, value: float) -> None:
        self.minima[name] = min(self.minima.get(name, math.inf), value)

    def durations_ms(self, name: str) -> List[float]:
        return [1000.0 * (s.end - s.start) for s in self.spans if s.name == name]

    def self_times_ms(self, name: str) -> List[float]:
        """Duration of each span called `name` minus what its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [
            1000.0 * self_time(s.start, s.end, children.get(i, ()))
            for i, s in enumerate(self.spans)
            if s.name == name
        ]

    def as_records(self) -> List[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


class NullTracer(Tracer):
    """Tracer that records nothing, for untraced runs."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass

    def minimum(self, name: str, value: float) -> None:
        pass


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] not covered by the union of the child intervals."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def highest_percentile(n: int) -> Optional[float]:
    """Highest of PERCENTILES with at least TAIL_SAMPLES of n samples beyond it."""
    supported = [p for p in PERCENTILES if n * (100.0 - p) >= TAIL_SAMPLES * 100.0 - 1e-9]
    return supported[-1] if supported else None


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile q of the samples; 0.0 when there are none.

    Raises ValueError when q is above the highest percentile the sample
    count supports, so a tail figure is never read off too few samples.
    """
    if not samples:
        return 0.0
    top = highest_percentile(len(samples))
    if top is None or q > top:
        raise ValueError(f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; have {len(samples)}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
