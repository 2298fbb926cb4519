"""In-memory spans around the benchmark's calls into saltlib's modules.

A span is (name, start, end, parent, op): times from time.perf_counter, the
index of the enclosing span (-1 at top level) and the operation id, if any.
Names are "<module>.<function>" for calls into the library,
"op.<workload>.<kind>" for a timed operation and "probe.<what>" for extra
traced-only measurements. Counters are recorded at the same call sites.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: span() and add() cost one call each."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def add(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


class SpanIndex:
    """Durations, self times and top-level roots of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        self.names = [s[0] for s in spans]
        self.duration = [s[2] - s[1] for s in spans]
        self.parent = [s[3] for s in spans]
        child_time = [0.0] * len(spans)
        self.root = [""] * len(spans)
        for i, p in enumerate(self.parent):
            self.root[i] = self.names[i] if p < 0 else self.root[p]
            if p >= 0:
                child_time[p] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def select(self, name: str, root_prefix: str = "op.", exclude_root: str | None = None):
        """Indices of spans called `name` under a root whose name has root_prefix."""
        return [
            i for i, n in enumerate(self.names)
            if n == name and self.root[i].startswith(root_prefix)
            and self.root[i] != exclude_root
        ]

    def total_self(self, idx) -> float:
        return sum(self.self_time[i] for i in idx)

    def total(self, idx) -> float:
        return sum(self.duration[i] for i in idx)

    def covered_frac(self, op_prefix: str) -> float:
        """Share of the wall time of ops named op_prefix* spent inside spans
        directly under the op."""
        op_time = 0.0
        covered = 0.0
        for i, n in enumerate(self.names):
            if self.parent[i] < 0 and n.startswith(op_prefix):
                op_time += self.duration[i]
            elif self.parent[i] >= 0 and self.names[self.parent[i]].startswith(op_prefix):
                covered += self.duration[i]
        return covered / op_time if op_time > 0.0 else 0.0
