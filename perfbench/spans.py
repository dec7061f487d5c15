"""Spans around the benchmark's own calls into csd4.

The benchmark never instruments code under ``src/``: it wraps each call it
makes into a layer's public function in a span.  Spans stay in memory and
are written out once, at the end of a traced run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Calls functions, recording a span around each call when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.request: str | None = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else None, self.request)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            return fn(*args)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def retime(self, ref) -> None:
        """Map every span's stamps through ref, such as into reference time."""
        for s in self.spans:
            s.start, s.end = ref(s.start), ref(s.end)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0  # summed self time
    durations: list = field(default_factory=list)


def by_name(spans) -> dict:
    """Span name -> LayerStats over every span of that name."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.busy_s += selfs[s.id]
        st.durations.append(s.duration)
    return out
