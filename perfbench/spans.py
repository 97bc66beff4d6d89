"""In-memory spans recorded around the benchmark's calls into each layer.

A span records its name (the per-layer metric stem, e.g.
``solvers.solve``), start and end on the ``perf_counter`` clock, the
id of its parent span and the id of the op it belongs to.  Spans stay
in memory while the run measures and are written once, as JSON lines,
when it ends.

Untraced ops get :data:`NULL_TRACER`, whose ``span`` is a no-op
context manager, so the workload code is the same in both modes.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of the traced ops of one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._op_id = -1

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, self._op_id, name, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times_ms(self, op_id: int) -> Dict[str, float]:
        """Per-name self time of one op, in ms.

        Self time is a span's duration minus the time its direct
        children cover (children never overlap: one caller, one thread).
        """
        spans = [s for s in self.spans if s.op_id == op_id]
        covered: Dict[int, float] = {}
        for s in spans:
            if s.parent_id is not None:
                covered[s.parent_id] = covered.get(s.parent_id, 0.0) + s.duration
        totals: Dict[str, float] = {}
        for s in spans:
            own = s.duration - covered.get(s.span_id, 0.0)
            totals[s.name] = totals.get(s.name, 0.0) + own * 1e3
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _NullTracer:
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL_TRACER = _NullTracer()
