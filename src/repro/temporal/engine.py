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
partition size (operator output logs are trimmed as consumers drain
them).

Telemetry: construct with ``Engine(tracer=...)`` (or a full
:class:`~repro.runtime.RunContext`) to record one summary span per plan
node — input/output event counts, selectivity, accumulated busy time —
under the caller's current span; inside a TiMR reducer that nests the
operator spans under the cluster's reduce-partition span automatically.
The default is the shared no-op tracer, which costs nothing.
"""

from __future__ import annotations

import heapq
import warnings
from itertools import islice
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..runtime.context import RunContext
from ..runtime.dataflow import Dataflow
from ..runtime.parallel import (
    SERIAL,
    ParallelSafetyWarning,
    force_parallel_requested,
)
from ..runtime.racecheck import (
    RaceWarning,
    ShadowRaceChecker,
    race_check_mode,
)
from .event import Event, EventColumns
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
        #: per-worker fan-out summary of a run under a parallel executor
        #: (executor kind, workers, tasks, stolen chunks, busy seconds,
        #: plus supervision recovery counters under ``"recovery"``);
        #: None when serial. All zeros and no workers when nothing
        #: fanned out — ``resolutions`` then says why
        self.parallel: Optional[dict] = None
        #: named physical-path resolutions: what the run did where its
        #: context asked for something else, as ``{name: {"count",
        #: "reason"}}``. ``"group_apply.local_wave"`` counts the
        #: GroupApply nodes a process (or degraded) executor ran inline
        #: on the driver's local wave; ``"retained.*"`` counts result rows
        #: kept unpacked (``EventColumns.resolutions``). Empty when
        #: nothing was resolved
        self.resolutions: Dict[str, dict] = {}

    @property
    def events_per_second(self) -> float:
        """Input events processed per wall-clock second (0.0 if untimed)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.input_events / self.wall_seconds

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another run's counters into this one (returns self).

        Counters are keyed by *plan path*, not operator instance, so
        stateless operator objects shared across GroupApply chains (or
        across per-worker runs of the same plan) never double-count:
        each run contributes its per-node totals exactly once, whatever
        instances computed them. Wall times add (they measure disjoint
        work); merging a stats object into itself is refused because it
        would silently double every counter.
        """
        if other is self:
            raise ValueError("cannot merge an EngineStats into itself")
        self.input_events += other.input_events
        self.output_events += other.output_events
        for key, count in other.operator_events.items():
            self.operator_events[key] = self.operator_events.get(key, 0) + count
        self.operator_labels.update(other.operator_labels)
        self.wall_seconds += other.wall_seconds
        for name, entry in other.resolutions.items():
            ours = self.resolutions.setdefault(name, {**entry, "count": 0})
            ours["count"] += entry["count"]
        if other.parallel is not None:
            if self.parallel is None:
                self.parallel = dict(other.parallel)
            else:
                merged = dict(self.parallel)
                for field in ("calls", "tasks", "chunks", "stolen_chunks"):
                    merged[field] = merged.get(field, 0) + other.parallel.get(
                        field, 0
                    )
                merged["busy_seconds"] = round(
                    merged.get("busy_seconds", 0.0)
                    + other.parallel.get("busy_seconds", 0.0),
                    6,
                )
                ours = merged.get("recovery")
                theirs = other.parallel.get("recovery")
                if theirs and ours:
                    folded = dict(ours)
                    for field, value in theirs.items():
                        folded[field] = folded.get(field, 0) + value
                    folded["backoff_seconds"] = round(
                        folded.get("backoff_seconds", 0.0), 6
                    )
                    merged["recovery"] = folded
                elif theirs:
                    merged["recovery"] = dict(theirs)
                ours_oh = merged.get("overhead")
                theirs_oh = other.parallel.get("overhead")
                if theirs_oh and ours_oh:
                    folded = {
                        field: round(
                            ours_oh.get(field, 0) + value,
                            6 if field != "calls" else 0,
                        )
                        for field, value in theirs_oh.items()
                    }
                    folded["calls"] = int(folded.get("calls", 0))
                    merged["overhead"] = folded
                elif theirs_oh:
                    merged["overhead"] = dict(theirs_oh)
                merged.pop("workers", None)  # worker identity is per-run
                self.parallel = merged
        return self


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

    def __init__(self, tracer=None, *, context: Optional[RunContext] = None):
        self.context = RunContext.of(context, tracer=tracer)
        self.last_stats: Optional[EngineStats] = None
        #: RaceFinding list from the last run's ShadowRaceChecker (empty
        #: when the checker was off or found nothing)
        self.last_race_findings: List = []

    @property
    def tracer(self):
        return self.context.tracer

    def run(
        self,
        query: Union[Query, PlanNode],
        sources: Dict[str, Iterable],
        time_column: str = "Time",
        validate: Optional[bool] = None,
        batch_size: Optional[int] = None,
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
                are converted to point events on ``time_column``, exactly
                as a TiMR reducer would).
            time_column: timestamp column for row inputs.
            validate: run the static pre-flight analyzer first and refuse
                plans with error-severity findings (memoized per plan, so
                re-running a validated plan costs nothing). ``None``
                defers to the run context (default: on).
            batch_size: events fed per dataflow round; bounds working-set
                memory together with window state. ``None`` defers to the
                run context.
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
        chunk_size = batch_size if batch_size is not None else context.batch_size

        executor = context.resolve_executor()
        executor = self._parallel_gate(root, executor, validating)
        race_checker = None
        self.last_race_findings = []
        if executor is not None and executor.parallel:
            mode = race_check_mode(context)
            if mode is not None:
                race_checker = ShadowRaceChecker(
                    root, perturb=(mode == "perturb")
                )

        flow = Dataflow(
            root,
            allow_unstreamable=True,
            timed=tracer.enabled,
            # amortize GroupApply watermark waves: chains advance once
            # per threshold of fed events, not once per chunk
            group_wave_events=max(chunk_size, 4096),
            executor=executor,
            race_checker=race_checker,
            tracer=tracer,
        )
        for name in flow.source_names():
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
            if flow.has_source(name):
                feeds.append((name, rows))

        with context.quiet():
            span = None
            if tracer.enabled:
                span = tracer.span("engine.run", category="engine")
                span.__enter__()
            try:
                # each released batch is packed as it arrives
                output = EventColumns(
                    _drive(flow, feeds, time_column, chunk_size)
                )
                self._record(flow, root, stats, output, tracer)
            finally:
                # severs the graph's reference cycles: with the collector
                # paused, refcounts are what frees it
                flow.close()
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
        if race_checker is not None:
            self.last_race_findings = list(race_checker.findings)
            if race_checker.findings:
                warnings.warn(
                    RaceWarning(race_checker.summary()), stacklevel=2
                )
        return output

    # -- internals -------------------------------------------------------------

    def _parallel_gate(self, root, executor, validating: bool):
        """Downgrade an unsafe parallel request to serial, with a warning.

        Runs the static parallel-safety pass only when a non-serial
        executor is in play and validation is on; ``--force-parallel`` /
        ``REPRO_FORCE_PARALLEL`` / ``RunContext(force_parallel=True)``
        skip the gate, and ``# repro: ignore[rule]`` comments suppress
        individual findings before they ever reach it.
        """
        if executor is None or not executor.parallel or not validating:
            return executor
        if force_parallel_requested(self.context):
            return executor
        from ..analysis.concurrency import blocking_findings

        blocked = blocking_findings(root, executor.kind)
        if not blocked:
            return executor
        details = "; ".join(d.format() for d in blocked[:4])
        more = len(blocked) - 4
        if more > 0:
            details += f"; ... {more} more"
        warnings.warn(
            ParallelSafetyWarning(
                f"falling back to serial execution: the {executor.kind!r} "
                f"executor is unsafe for this plan ({details}). Suppress "
                "specific findings with a '# repro: ignore[rule]' comment, "
                "or force parallel execution with --force-parallel / "
                "REPRO_FORCE_PARALLEL=1 / RunContext(force_parallel=True)."
            ),
            stacklevel=3,
        )
        return SERIAL

    def _record(self, flow, root, stats, output, tracer):
        """Fill stats and emit one summary span per operator node."""
        stats.output_events = len(output)
        stats.resolutions = {**flow.resolutions, **output.resolutions}
        if tracer.enabled:
            # the executor.* family is executor-dependent by nature, like
            # chunk geometry; rows the result keeps unpacked depend on the
            # data alone
            for counter, found in (
                ("executor.resolutions", flow.resolutions),
                ("engine.resolutions", output.resolutions),
            ):
                for name, entry in found.items():
                    tracer.metrics.counter(counter, resolution=name).inc(
                        entry["count"]
                    )
                    tracer.event(
                        "supervision.resolved", category="supervision",
                        lane="driver", resolution=name, **entry,
                    )
        if flow.parallel_stats is not None:
            stats.parallel = flow.parallel_stats.as_dict()
            recovery = flow.parallel_stats.recovery
            if tracer.enabled and recovery.any():
                # supervision activity (worker restarts, re-executed
                # chunks, degradations) is rare enough to always surface
                metrics = tracer.metrics
                for key, value in recovery.as_dict().items():
                    if value:
                        # pool worker kills make re-execution counts a
                        # race against how far the victim got, so these
                        # stay out of the deterministic snapshot
                        metrics.counter(
                            f"engine.executor_{key}", deterministic=False
                        ).inc(value)
        keys = plan_node_keys(root)
        for node, events_in, events_out, busy in flow.node_stats():
            key = keys.get(node.node_id)
            if key is None:  # a node outside the precomputed order (defensive)
                key = f"{node.node_id}.{node.op_name}"
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


def _drive(flow, feeds, time_column: str, chunk_size: int):
    """Feed every source through ``flow`` in bounded, watermark-aligned
    chunks, then flush; yields each batch of outputs ``flow`` releases."""
    if len(feeds) == 1:
        # fast path: no cross-source merge needed
        name, rows = feeds[0]
        stream = _event_stream(rows, time_column)
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
            _tag_stream(_event_stream(rows, time_column), slot)
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


def _event_stream(rows: List, time_column: str):
    """Yield events in LE order, converting rows lazily.

    Sorted inputs (the common case — TiMR partitions and the generator
    both emit time order) stream through without any copy; unsorted
    inputs pay one sorted copy. Rows become point events one at a time so
    the engine never materializes a second full-partition event list.
    """
    if not rows:
        return iter(())
    if isinstance(rows[0], Event):
        if any(rows[i].le > rows[i + 1].le for i in range(len(rows) - 1)):
            rows = sorted(rows, key=lambda e: e.le)
        return iter(rows)
    # row dicts: KeyError on a missing time column, as point_events raises
    times = [row[time_column] for row in rows]
    if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
        order = sorted(range(len(rows)), key=times.__getitem__)
        rows = [rows[i] for i in order]
        times = [times[i] for i in order]

    def gen():
        point = Event.point
        for t, row in zip(times, rows):
            payload = dict(row)
            del payload[time_column]
            yield point(t, payload)

    return gen()


def run_query(
    query: Union[Query, PlanNode],
    sources: Dict[str, Iterable],
    time_column: str = "Time",
) -> Sequence[Event]:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine().run(query, sources, time_column=time_column)
