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

Cross-process tracing
---------------------

A :class:`Tracer` lives in the driver; forked workers cannot append to
it. Workers instead record into a :class:`WorkerSpanRecorder` — a
lightweight buffer of plain picklable tuples (plus an optional worker
metrics registry) that ships back with results over the existing result
pipe. The driver calls :meth:`Tracer.absorb` to
re-parent the shipped spans under the dispatching span and tag each with
a stable worker *lane* (``worker-3``, ``driver``); the
Chrome exporter turns lanes into per-worker pid/tid timelines. Worker
wall times are directly comparable with the driver's because forked
children share the parent's ``perf_counter`` clock (CLOCK_MONOTONIC).

Lane attributes (``lane``) and recovery markers (``recovered``) depend
on OS scheduling; the deterministic view of a trace excludes them — see
:func:`repro.obs.export.sim_trace_tree`.
"""

from __future__ import annotations

import itertools
import time as _time
from typing import Dict, Iterator, List, Optional

from .metrics import MetricsRegistry, NULL_REGISTRY


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

        Used for supervision events — worker kills, respawns, replays,
        degradations — that mark a moment rather than a duration. The
        Chrome exporter renders zero-duration spans as instant events.
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

    def absorb(
        self,
        records,
        lane: Optional[str] = None,
        parent: Optional[Span] = None,
        **extra_attrs,
    ) -> List[Span]:
        """Re-parent worker-recorded spans under ``parent`` (default: the
        currently open span) and tag them with a worker ``lane``.

        ``records`` is the output of :meth:`WorkerSpanRecorder.records`:
        ``(rel_id, rel_parent, name, category, start, end, attrs)``
        tuples in the worker's start order (children after their parent).
        Call in a deterministic order — worker id, then chunk start
        — so span insertion order is reproducible across runs.
        """
        if parent is None:
            parent = self.current()
        base_parent_id = parent.span_id if parent is not None else None
        base_depth = parent.depth + 1 if parent is not None else 0
        absorbed: List[Span] = []
        by_rel: Dict[int, Span] = {}
        for rel_id, rel_parent, name, category, start, end, attrs in records:
            rel_parent_span = by_rel.get(rel_parent)
            span = Span(
                tracer=self,
                span_id=next(self._ids),
                parent_id=(
                    rel_parent_span.span_id
                    if rel_parent_span is not None
                    else base_parent_id
                ),
                name=name,
                category=category,
                attrs=dict(attrs),
                depth=(
                    rel_parent_span.depth + 1
                    if rel_parent_span is not None
                    else base_depth
                ),
            )
            span.start = start
            span.end = end
            if lane is not None:
                span.attrs["lane"] = lane
            if extra_attrs:
                span.attrs.update(extra_attrs)
            by_rel[rel_id] = span
            self.spans.append(span)
            absorbed.append(span)
        return absorbed

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


class _RecSpan:
    """One span being recorded inside a worker (context manager)."""

    __slots__ = ("_recorder", "rel_id", "parent_id", "name", "category",
                 "attrs", "start", "end")

    def __init__(self, recorder, rel_id, parent_id, name, category, attrs):
        self._recorder = recorder
        self.rel_id = rel_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.attrs = attrs
        self.start = 0.0
        self.end: Optional[float] = None

    def set(self, key: str, value) -> "_RecSpan":
        self.attrs[key] = value
        return self

    def add(self, key: str, delta) -> "_RecSpan":
        self.attrs[key] = self.attrs.get(key, 0) + delta
        return self

    def set_duration(self, seconds: float) -> "_RecSpan":
        self.end = self.start + seconds
        return self

    def __enter__(self) -> "_RecSpan":
        self.start = _time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = _time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._recorder._pop(self)


class WorkerSpanRecorder:
    """Worker-side span + metrics buffer, shipped back as plain data.

    Mirrors the :class:`Tracer` span API (``span`` context managers with
    nesting) but records into picklable tuples instead of live
    :class:`Span` objects; the driver re-parents them with
    :meth:`Tracer.absorb`. ``metrics`` is a private
    :class:`MetricsRegistry` whose :meth:`~MetricsRegistry.export_state`
    ships alongside (see :meth:`state`). Workers run single-threaded, so
    no locking.
    """

    enabled = True

    def __init__(self):
        self.metrics = MetricsRegistry()
        self._spans: List[_RecSpan] = []  # in start order
        self._stack: List[_RecSpan] = []
        self._ids = itertools.count(1)

    def span(self, name: str, category: str = "", **attrs) -> _RecSpan:
        parent = self._stack[-1] if self._stack else None
        rec = _RecSpan(
            recorder=self,
            rel_id=next(self._ids),
            parent_id=parent.rel_id if parent is not None else None,
            name=name,
            category=category or (parent.category if parent else ""),
            attrs=attrs,
        )
        self._spans.append(rec)
        self._stack.append(rec)
        return rec

    def event(self, name: str, category: str = "", **attrs) -> _RecSpan:
        parent = self._stack[-1] if self._stack else None
        rec = _RecSpan(
            recorder=self,
            rel_id=next(self._ids),
            parent_id=parent.rel_id if parent is not None else None,
            name=name,
            category=category or (parent.category if parent else ""),
            attrs=attrs,
        )
        now = _time.perf_counter()
        rec.start = now
        rec.end = now
        self._spans.append(rec)
        return rec

    def records(self) -> List[tuple]:
        """Finished spans as ``(rel_id, rel_parent, name, category,
        start, end, attrs)`` tuples, in *start* order (parents before
        their children), ready for :meth:`Tracer.absorb`."""
        return [
            (s.rel_id, s.parent_id, s.name, s.category, s.start, s.end, s.attrs)
            for s in self._spans
            if s.end is not None
        ]

    def state(self) -> tuple:
        """The whole buffer as one picklable value: ``(records,
        metrics_state)``. Ship this with the worker's result message and
        hand it to :func:`absorb_worker_state` on the driver."""
        return (self.records(), self.metrics.export_state())

    def _pop(self, rec: _RecSpan) -> None:
        while self._stack:
            top = self._stack.pop()
            if top is rec:
                break


def absorb_worker_state(
    tracer,
    state,
    lane: Optional[str] = None,
    parent=None,
    **extra_attrs,
):
    """Fold one worker's :meth:`WorkerSpanRecorder.state` into a tracer.

    Spans are re-parented under ``parent`` (default: the tracer's
    current span) tagged with ``lane``; worker metrics merge into the
    tracer's registry. No-op on a disabled tracer or an empty state.
    Returns the absorbed spans.
    """
    if state is None or not tracer.enabled:
        return []
    records, metrics_state = state
    if metrics_state:
        tracer.metrics.merge_state(metrics_state)
    if not records:
        return []
    return tracer.absorb(records, lane=lane, parent=parent, **extra_attrs)


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

    def absorb(self, records, lane=None, parent=None, **extra_attrs):
        return []

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
