"""Single-node temporal engine: the batch driver of the shared runtime.

Executes a logical CQ plan over bounded streams with application-time
semantics: results are a pure function of event payloads and lifetimes,
never of physical processing order (Section III-C.1). That determinism is
what lets TiMR restart failed reducers and re-run the same queries over
offline files or live feeds with identical output.

Execution is a thin loop over the shared incremental runtime
(:class:`repro.runtime.Dataflow`): the engine merges all sources into one
globally LE-ordered stream, feeds it through the operator graph in
bounded batches with aligned watermarks, and flushes at end of input.
The operator objects are the *same* ones the push-based
:class:`~repro.temporal.streaming.StreamingEngine` drives one event at a
time, so batch ≡ streaming holds by construction — and working-set
memory is bounded by active-window state plus one batch, not by the
partition size (each ``advance`` hands a step's output to its consumers
within the pass, and the next pass replaces it).

Telemetry: construct with ``Engine(context=RunContext(tracer=...))``
to record one summary span per plan node — input/output event counts,
selectivity, accumulated busy time — under the caller's current span;
inside a TiMR reducer that nests the operator spans under the cluster's
reduce-partition span automatically.
The default is the shared no-op tracer, which costs nothing.
"""

from __future__ import annotations

import heapq
from itertools import chain, islice
from operator import itemgetter, le
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..runtime.context import DEFAULT_CONTEXT, RunContext
from ..runtime.dataflow import Dataflow
from .event import Event, EventColumns, _decode, rows_by_time
from .plan import (
    GroupInputNode,
    PlanNode,
    SourceNode,
    topological_order,
)
from .query import Query


class EngineStats:
    """Lightweight per-run instrumentation (drives the Fig 15 benchmark).

    ``operator_events`` is keyed by *plan path* — the node's position in
    the plan's topological order plus its operator name — so two
    identical operators in one plan (say two ``where`` nodes with the
    same label) keep separate counts. ``operator_labels`` maps each key
    back to the node's human-readable ``describe()`` text.
    """

    def __init__(self):
        self.input_events = 0
        self.output_events = 0
        self.operator_events: Dict[str, int] = {}
        self.operator_labels: Dict[str, str] = {}
        self.wall_seconds = 0.0
        #: always None, and leaving with the benchmark's reader of it
        #: (``benchmarks/e2e/tracing.py``): a run never fans out
        self.parallel: Optional[dict] = None
        #: named physical-path resolutions: what the run did where its
        #: context asked for something else, as ``{name: {"count",
        #: "reason"}}``. ``"executor.serial"`` is a context naming a
        #: parallel executor (``RunContext.executor_resolutions``);
        #: ``"retained.*"`` counts result rows kept unpacked
        #: (``EventColumns.resolutions``). Empty when nothing was
        #: resolved
        self.resolutions: Dict[str, dict] = {}

    @property
    def events_per_second(self) -> float:
        """Input events processed per wall-clock second (0.0 if untimed)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.input_events / self.wall_seconds


def plan_node_keys(root: PlanNode) -> Dict[int, str]:
    """Stable per-node keys: topological position + operator name.

    Unlike ``node_id`` (a process-global counter) the topological index
    is identical across plan rebuilds, so metrics keyed this way compare
    across runs of the same query.
    """
    return {
        node.node_id: f"{i:03d}.{node.op_name}"
        for i, node in enumerate(topological_order(root))
    }


class Engine:
    """Executes CQ plans over bounded event streams (the batch driver)."""

    def __init__(self, *, context: Optional[RunContext] = None):
        self.context = context if context is not None else DEFAULT_CONTEXT
        self.last_stats: Optional[EngineStats] = None

    def run(
        self,
        query: Union[Query, PlanNode],
        sources: Dict[str, Iterable],
        validate: Optional[bool] = None,
    ) -> Sequence[Event]:
        """Execute ``query`` and return its output events, LE-ordered.

        The result is an :class:`~repro.temporal.event.EventColumns`: a
        read-only sequence that keeps lifetimes and payload values as
        columns and builds a fresh ``Event`` on every index or iteration
        (docs/EXECUTION.md, "What a run keeps"). ``list(result)`` gives
        the events as a list; ``events_to_rows(result)`` reads the
        columns without building any.

        Args:
            query: a :class:`Query` or plan root.
            sources: maps source names to event lists *or* row dicts (rows
                are decoded exactly as a TiMR reducer decodes them:
                :func:`~repro.temporal.event.decode_row`).
            validate: run the static pre-flight analyzer first and refuse
                plans with error-severity findings (memoized per plan, so
                re-running a validated plan costs nothing). ``None``
                defers to the run context (default: on).

        Events are fed in rounds of ``context.batch_size``, which bounds
        working-set memory together with window state.
        """
        root = query.to_plan() if isinstance(query, Query) else query
        context = self.context
        validating = validate if validate is not None else context.validate
        if validating:
            from ..analysis import validate_plan

            validate_plan(root)
        stats = EngineStats()
        start = context.clock()
        tracer = context.tracer
        chunk_size = context.batch_size

        flow = Dataflow(
            root,
            allow_unstreamable=True,
            # amortize GroupApply watermark waves: chains advance once
            # per threshold of fed events, not once per chunk
            group_wave_events=max(chunk_size, 4096),
            tracer=tracer,
        )
        names = flow.source_names()
        for name in names:
            if name not in sources:
                raise KeyError(
                    f"query references source {name!r} but only "
                    f"{sorted(sources)} were provided"
                )

        # one row list per source; conversion to events happens lazily
        # in the feed loops below
        feeds = []
        for name, data in sources.items():
            rows = data if isinstance(data, list) else list(data)
            stats.input_events += len(rows)
            if name in names:
                feeds.append((name, rows))

        with context.quiet():
            span = None
            if tracer.enabled:
                span = tracer.span("engine.run", category="engine")
                span.__enter__()
            try:
                # each released batch is packed as it arrives
                output = EventColumns(
                    _drive(flow, feeds, chunk_size)
                )
                self._record(flow, root, stats, output, context)
            finally:
                if span is not None:
                    span.set("input_events", stats.input_events)
                    span.set("output_events", stats.output_events)
                    span.__exit__(None, None, None)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("engine.input_events").inc(stats.input_events)
            metrics.counter("engine.output_events").inc(len(output))
        stats.wall_seconds = context.clock() - start
        self.last_stats = stats
        return output

    # -- internals -------------------------------------------------------------

    def _record(self, flow, root, stats, output, context):
        """Fill stats and emit one summary span per operator node."""
        stats.output_events = len(output)
        executor = context.executor_resolutions()
        stats.resolutions = {**executor, **output.resolutions}
        tracer = context.tracer
        if tracer.enabled:
            for counter, found in (
                ("executor.resolutions", executor),
                ("engine.resolutions", output.resolutions),
            ):
                for name, entry in found.items():
                    tracer.metrics.counter(counter, resolution=name).inc(
                        entry["count"]
                    )
                    tracer.event(
                        "resolution", category="resolution",
                        resolution=name, **entry,
                    )
        keys = plan_node_keys(root)
        for node, events_in, events_out, busy in flow.node_stats():
            key = keys[node.node_id]
            stats.operator_events[key] = (
                stats.operator_events.get(key, 0) + events_out
            )
            stats.operator_labels[key] = node.describe()
            if tracer.enabled and not isinstance(
                node, (SourceNode, GroupInputNode)
            ):
                with tracer.span(
                    "engine." + node.op_name,
                    category="engine",
                    node=key,
                    label=node.describe(),
                ) as span:
                    span.set("events_in", events_in)
                    span.set("events_out", events_out)
                    if events_in:
                        span.set("selectivity", round(events_out / events_in, 6))
                span.set_duration(busy)
                tracer.metrics.counter(
                    "engine.operator_events", op=key
                ).inc(events_out)


def _drive(flow, feeds, chunk_size: int):
    """Feed every source through ``flow`` in bounded, watermark-aligned
    chunks, then flush; yields each batch of outputs ``flow`` releases."""
    if len(feeds) == 1:
        # fast path: no cross-source merge needed
        name, rows = feeds[0]
        stream = _event_stream(rows, chunk_size)
        while True:
            chunk = list(islice(stream, chunk_size))
            if not chunk:
                break
            flow.feed(name, chunk)
            flow.set_watermarks(chunk[-1].le)
            yield flow.advance()
    elif feeds:
        # merge all sources into one globally LE-ordered stream
        # of (le, slot, event); ties never compare events
        tagged = [
            _tag_stream(_event_stream(rows, chunk_size), slot)
            for slot, (_, rows) in enumerate(feeds)
        ]
        merged = heapq.merge(*tagged, key=itemgetter(0))
        names = [name for name, _ in feeds]
        while True:
            chunk = list(islice(merged, chunk_size))
            if not chunk:
                break
            per_source: Dict[int, List[Event]] = {}
            for le, slot, event in chunk:
                per_source.setdefault(slot, []).append(event)
            for slot, events in per_source.items():
                flow.feed(names[slot], events)
            # an aligned CTI: the merged order guarantees no source
            # will ever produce an earlier event than the chunk tail
            flow.set_watermarks(chunk[-1][0])
            yield flow.advance()
    yield flow.flush()


def _tag_stream(stream, slot: int):
    """Tag a source's events with its slot for the cross-source merge."""
    return ((e.le, slot, e) for e in stream)


def _event_stream(rows: List, chunk_size: int):
    """Yield events in LE order, decoding rows a chunk at a time.

    Sorted inputs (the common case — TiMR partitions and the generator
    both emit time order) stream through without any copy; unsorted
    inputs pay one sorted copy. Rows become events (:func:`point_events`,
    the reducer's decode) one chunk at a time, so the engine never
    materializes a second full-partition event list.
    """
    if not rows:
        return iter(())
    if isinstance(rows[0], Event):
        if not _ascending([e.le for e in rows]):
            rows = sorted(rows, key=lambda e: e.le)
        return iter(rows)
    rows, times = rows_by_time(rows)
    chunks = range(0, len(rows), chunk_size)
    return chain.from_iterable(
        _decode(times[i : i + chunk_size], rows[i : i + chunk_size]) for i in chunks
    )


def _ascending(times: List[int]) -> bool:
    """True when ``times`` never decreases (one C-level pass)."""
    return all(map(le, times, islice(times, 1, None)))


def run_query(
    query: Union[Query, PlanNode], sources: Dict[str, Iterable]
) -> Sequence[Event]:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine().run(query, sources)
