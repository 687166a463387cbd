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

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import islice
from operator import le
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..runtime.context import DEFAULT_CONTEXT, RunContext
from ..runtime.dataflow import Dataflow
from ..runtime.keyed import ROW_LOOP
from .event import _LE, Batch, Event
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
        #: source rows the run turned into ``Event`` objects: every row
        #: of a source that something reads as events, none of one that
        #: only a keyed sweep reads (docs/EXECUTION.md, "Rows")
        self.decoded_rows = 0
        #: source rows a keyed count or int sum swept as arrays (docs/EXECUTION.md)
        self.array_swept_rows = 0
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
        #: (``Batch.resolutions``). Empty when nothing was
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

        The result is a :class:`~repro.temporal.event.Batch` of layout
        values: a read-only sequence that keeps lifetimes and payload
        values as columns and builds a fresh ``Event`` on every index or
        iteration (docs/EXECUTION.md, "What a run keeps").
        ``list(result)`` gives the events as a list;
        ``events_to_rows(result)`` reads the columns without building
        any.

        Args:
            query: a :class:`Query` or plan root.
            sources: maps source names to event lists, row dicts (a
                row means what :func:`~repro.temporal.event.decode_row`
                makes of it; a keyed sweep may read them without
                decoding, ``last_stats.decoded_rows``) or a source's
                :meth:`Batch.source <repro.temporal.event.Batch.source>`
                (a TiMR reducer's tagged input).
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
            rows = data if isinstance(data, list) or _is_source(data) else list(data)
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
                output = Batch.pack(_drive(flow, feeds, chunk_size, stats))
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
            metrics.counter("engine.decoded_rows").inc(stats.decoded_rows)
            metrics.counter("engine.array_swept_rows").inc(stats.array_swept_rows)
            metrics.counter("dataflow.chain_advances").inc(flow.chain_advances)
        stats.wall_seconds = context.clock() - start
        self.last_stats = stats
        return output

    # -- internals -------------------------------------------------------------

    def _record(self, flow, root, stats, output, context):
        """Fill stats and emit one summary span per operator node."""
        stats.output_events = len(output)
        sweeps = flow.keyed_sweeps()
        stats.array_swept_rows = sum(sweep.array_swept_rows for sweep in sweeps)
        looped = sum((sweep.row_loop for sweep in sweeps), Counter())
        why = "a keyed count or int sum took its per-row loop: "
        found_here = {ROW_LOOP: {"count": sum(looped.values()), "reason": why + "; ".join(
            sorted(looped))}} if looped else {}
        found_here.update(output.resolutions)
        executor = context.executor_resolutions()
        stats.resolutions = {**executor, **found_here}
        tracer = context.tracer
        if tracer.enabled:
            for counter, found in (
                ("executor.resolutions", executor),
                ("engine.resolutions", found_here),
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
        if tracer.enabled:
            count_operator_events(tracer.metrics, flow, root)


def count_operator_events(metrics, flow, root) -> None:
    """Add each operator node's output events to ``engine.operator_events``
    (not a source's: ``EngineStats.operator_events`` counts those too)."""
    keys = plan_node_keys(root)
    for node, _, events_out, _ in flow.node_stats():
        if not isinstance(node, (SourceNode, GroupInputNode)):
            metrics.counter("engine.operator_events", op=keys[node.node_id]).inc(events_out)


def _drive(flow, feeds, chunk_size: int, stats: EngineStats):
    """Feed every source through ``flow`` in bounded, watermark-aligned
    chunks, then flush; yields each batch of outputs ``flow`` releases.

    A chunk is the next ``chunk_size`` items of all sources merged by LE,
    ties in source order; each source's share of it is fed as one view
    (:func:`_source`), the sources in the order of their first item, and
    the watermark is the chunk's last LE: no source will produce an
    earlier event. Counts the source rows decoded to events in
    ``stats``."""
    names = [name for name, _ in feeds]
    cols, views = zip(*map(_source, (rows for _, rows in feeds))) if feeds else ((), ())
    starts = [0] * len(cols)
    while True:
        takes = _cut(cols, starts, chunk_size)
        order = sorted((cols[s][starts[s]], s) for s, k in enumerate(takes) if k)
        if not order:
            break
        chunks = []
        for _, s in order:
            i = starts[s]
            starts[s] += takes[s]
            chunks.append(views[s](i, starts[s]))
            flow.feed(names[s], chunks[-1])
        flow.set_watermarks(max(cols[s][starts[s] - 1] for _, s in order))
        yield flow.advance()
        for chunk in chunks:
            if type(chunk) is Batch and chunk.decoded:
                stats.decoded_rows += len(chunk)
    yield flow.flush()


def _cut(cols: Sequence[list], starts: List[int], k: int) -> List[int]:
    """How many of each source's next items the next ``k`` of the merge
    take: ``cols`` are the sources' LE columns, ``starts`` what earlier
    chunks took. The merge orders items by LE, then source, then
    position: an item's rank past ``starts`` counts the earlier sources'
    items at or before its LE and the later ones' strictly before it, so
    a bisection per source finds its cut."""
    takes = []
    for s, (col, c) in enumerate(zip(cols, starts)):
        lo, hi = c, min(len(col), c + k)
        while lo < hi:
            m = (lo + hi) // 2
            v, rank = col[m], m - c
            for t, (other, ct) in enumerate(zip(cols, starts)):
                if t != s:
                    rank += (bisect_right if t < s else bisect_left)(other, v, ct) - ct
            if rank < k:
                lo = m + 1
            else:
                hi = m
        takes.append(lo - c)
    return takes


def _is_source(data) -> bool:
    """Whether ``data`` is a source's rows as a :class:`Batch`."""
    return type(data) is Batch and data.rows is not None


def _source(rows):
    """``(les, view)`` of a source in LE order: ``view(i, j)`` is items
    ``i`` to ``j``, a list of its events or a :class:`Batch` of its rows
    (:meth:`Batch.cut`).

    Sorted inputs (the common case — TiMR partitions and the generator
    both emit time order) stream through without any copy; unsorted
    inputs pay one sorted copy. A row's ``Time`` and ``_re`` are checked
    for the whole source up front (:meth:`Batch.source`), with
    :func:`point_events`' errors; the rows are decoded only where a
    reader reads them as events, so the engine never materializes a
    second full-partition event list.
    """
    if _is_source(rows):
        return rows.les, rows.cut
    if not rows:
        return [], None
    if isinstance(rows[0], Event):
        if set(map(type, rows)) != {Event}:
            for i, e in enumerate(rows):
                if not isinstance(e, Event):
                    raise ValueError(f"row {i} is {type(e).__name__} {e!r}, not an Event")
        les = list(map(_LE, rows))
        if not _ascending(les):
            rows = sorted(rows, key=_LE)
            les = list(map(_LE, rows))
        return les, lambda i, j: rows[i:j]
    batch = Batch.source(rows)
    return batch.les, batch.cut


def _ascending(times: List[int]) -> bool:
    """True when ``times`` never decreases (one C-level pass)."""
    return all(map(le, times, islice(times, 1, None)))


def run_query(
    query: Union[Query, PlanNode], sources: Dict[str, Iterable]
) -> Sequence[Event]:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine().run(query, sources)
