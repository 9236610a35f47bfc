"""In-memory span recorder used by the traced run.

A span is one call at a layer boundary: its name, start and end, the
span that caused it, and the request it served.  The current span rides
in a :class:`contextvars.ContextVar`, so work handed to a thread through
a copied context (as ``QueryExecutor.submit`` does) links to the span
that submitted it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One recorded call."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The layer a span belongs to: its name up to the first dot."""
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans from any thread.

    ``request_source`` names the request of a span that has no parent
    span to inherit one from (the server passes its trace-id lookup).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        request_source: Callable[[], str | None] = lambda: None,
    ):
        self._clock = clock
        self._request_source = request_source
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, request: str | None = None,
             **attrs: Any) -> Iterator[Span]:
        """Record the enclosed block as a span named ``name``."""
        parent = self._current.get()
        if request is None:
            request = (
                parent.request if parent is not None
                else self._request_source()
            )
        record = Span(
            id=next(self._ids),
            name=name,
            start=self._clock(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            request=request,
            attrs=dict(attrs),
        )
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._current.reset(token)
            with self._lock:
                self.spans.append(record)

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Callable[[Span, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as a span; ``after(span, args, kwargs,
        result)`` may attach attributes from the call and its result."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record, args, kwargs, result)
                return result

        return traced


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals
        if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children that overlap each other (threads) are counted once; a
    child outliving its parent only counts inside the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def ancestors(spans: list[Span]) -> Callable[[Span], Iterator[Span]]:
    """A function yielding a span's ancestors, nearest first."""
    by_id = {s.id: s for s in spans}

    def walk(span: Span) -> Iterator[Span]:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            yield parent
            parent = (
                by_id.get(parent.parent) if parent.parent is not None
                else None
            )

    return walk
