"""Span recording, self-time arithmetic and nearest-rank percentiles.

The benchmark records spans from its own code, around each call into a
layer of biokgr. Spans stay in memory (name, start, end, parent, op id) and
are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import contextvars
import json
import math
import time
from dataclasses import asdict, dataclass

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of `values`.

    Refuses (raises `TooFewSamples`) unless at least `MIN_BEYOND` samples
    lie beyond the rank it returns.
    """
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples leaves {n - rank} beyond it (need {MIN_BEYOND})")
    return sorted(values)[rank - 1]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on a context-local stack, timed with `perf_counter`."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None)

    @contextlib.contextmanager
    def span(self, name: str, op_id: int | None = None):
        parent = self._current.get()
        if op_id is None and parent is not None:
            op_id = parent.op_id
        span = Span(len(self.spans), name, self._clock(), 0.0,
                    parent.span_id if parent is not None else None, op_id)
        self.spans.append(span)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._current.reset(token)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced runs use this."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, op_id: int | None = None):
        return self._null


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration - covered
    return out


class SpanView:
    """Per-name aggregates over a list of spans; times are multiplied by `scale`."""

    def __init__(self, spans: list[Span], scale: float = 1.0):
        self.spans = spans
        self.scale = scale
        self._self = self_times(spans)

    def busy_s(self, name: str) -> float:
        return self.scale * sum(self._self[s.span_id] for s in self.spans if s.name == name)

    def durations_ms(self, name: str) -> list[float]:
        return [self.scale * s.duration * 1000.0 for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)
