"""In-memory span recording for the benchmark's traced run.

A span is one call across a layer boundary: its name, start, end, the span
that was open when it began (its parent) and the episode it served. Spans
are kept in a list and only aggregated after the run, so recording a call
costs two clock reads and one small object.

Wrappers are installed by replacing module and class attributes that the
program looks up at call time; `Patcher` puts every original back on exit,
also when the traced code raises.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    episode: int
    error: str | None = None  # exception class name when the call raised
    counts: dict[str, int] | None = None  # boundary counts seen by an observer

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls routed through `call` or `wrap`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.episode = -1
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, observe=None):
        """Call fn inside a span; `observe(args, kwargs, result)` may add counts."""
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.episode)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span.error = type(e).__name__
            raise
        finally:
            span.end = self.clock()
            self._open.pop()
        if observe is not None:
            span.counts = observe(args, kwargs, result)
        return result

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Calls are single-threaded, so children of one span never overlap and
    their durations simply add up.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


class Patcher:
    """Replaces attributes of modules or classes and restores them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set owner.attr to make(original); classmethods stay classmethods."""
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0
