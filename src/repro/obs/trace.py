"""Span-based tracing: the unified telemetry substrate.

A :class:`Span` is one timed unit of work — an engine operator
evaluation, a cluster stage, a TiMR fragment — with a name, a category
(``engine`` / ``cluster`` / ``timr`` / ``streaming``), free-form
attributes, and parent/child nesting. A :class:`Tracer` records spans as
context managers and keeps the nesting stack, so instrumentation in one
layer (a reducer's embedded DSMS) lands under the span of the layer that
invoked it (the cluster's reduce partition) without any plumbing.

Two clocks coexist:

* **wall time** — ``perf_counter`` start/duration per span, exported to
  Chrome ``trace_event`` timelines. Wall values are *observability only*:
  they never feed back into any dataset row, preserving determinism.
* **simulated time** — deterministic seconds charged by the cost model
  (shuffle, retry backoff). Instrumentation records them as ordinary
  span attributes (``sim_*``) and metrics, so they are reproducible
  across runs.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``enabled``
flag is False and whose spans are a shared no-op object — instrumented
code guards its hot paths with ``if tracer.enabled:`` and pays nothing
when tracing is off.
"""

from __future__ import annotations

import itertools
import time as _time
from typing import Dict, List, Optional

from .metrics import MetricsRegistry, NULL_REGISTRY

#: Max slowdown factor a tracing-enabled run may show over NULL_TRACER
#: (``tests/obs/test_overhead_budget.py`` enforces it). Generous because
#: the measured queries are tiny (milliseconds), where constant span
#: overhead looms large; real workloads sit far below this.
TRACER_OVERHEAD_BUDGET_FACTOR = 5.0


class Span:
    """One traced unit of work; use as a context manager via Tracer.span."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "attrs",
        "depth",
        "start",
        "end",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        attrs: Dict[str, object],
        depth: int,
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.attrs = attrs
        self.depth = depth
        self.start = 0.0
        self.end: Optional[float] = None

    # -- recording ----------------------------------------------------------

    def set(self, key: str, value) -> "Span":
        self.attrs[key] = value
        return self

    def add(self, key: str, delta) -> "Span":
        """Increment a numeric attribute (creating it at zero)."""
        self.attrs[key] = self.attrs.get(key, 0) + delta
        return self

    def set_duration(self, seconds: float) -> "Span":
        """Overwrite the measured duration (call after the span closed).

        Used for *summary* spans whose work happened elsewhere — e.g. the
        engine's per-operator spans, whose busy time accumulates inside
        the dataflow loop and is backfilled onto one span at the end.
        """
        self.end = self.start + seconds
        return self

    @property
    def wall_seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        self.start = _time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = _time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)

    def __repr__(self):
        return f"<Span #{self.span_id} {self.category}:{self.name}>"


class Tracer:
    """Records a tree of spans plus a metrics registry.

    One tracer instance is threaded through every layer of a run; the
    internal stack makes spans opened by nested layers children of the
    innermost open span, whichever module opened it.
    """

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Span] = []  # in start order
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        self.epoch = _time.perf_counter()

    def span(self, name: str, category: str = "", **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            tracer=self,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category or (parent.category if parent else ""),
            attrs=attrs,
            depth=len(self._stack),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def event(self, name: str, category: str = "", **attrs) -> Span:
        """Record an instant (zero-duration) span under the current span.

        Used for named resolutions, which mark a moment rather than a
        duration. The Chrome exporter renders zero-duration spans as
        instant events.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(
            tracer=self,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category or (parent.category if parent else ""),
            attrs=attrs,
            depth=len(self._stack),
        )
        now = _time.perf_counter()
        span.start = now
        span.end = now
        self.spans.append(span)
        return span

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    # -- internals -----------------------------------------------------------

    def _pop(self, span: Span) -> None:
        # tolerate out-of-order exits (exceptions unwinding several spans)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break


class _NullSpan:
    """Shared no-op span: every method returns immediately."""

    __slots__ = ()

    def set(self, key, value):
        return self

    def add(self, key, delta):
        return self

    def set_duration(self, seconds):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


class NullTracer:
    """The zero-cost disabled tracer: one shared span, no recording.

    ``enabled`` is False so instrumented hot loops skip their recording
    branches entirely; code that unconditionally opens a coarse span
    (one per job, say) gets a shared no-op object.
    """

    enabled = False

    def __init__(self):
        self.metrics = NULL_REGISTRY
        self.spans: List[Span] = []
        self._span = _NullSpan()

    def span(self, name: str, category: str = "", **attrs) -> _NullSpan:
        return self._span

    def event(self, name: str, category: str = "", **attrs) -> _NullSpan:
        return self._span

    def current(self) -> None:
        return None

    def finished(self):
        return []

    def children(self, span):
        return []

    def roots(self):
        return []


#: Process-wide disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()
