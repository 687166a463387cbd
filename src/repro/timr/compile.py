"""Compiling fragments into map-reduce stages with embedded-DSMS reducers.

Section III-A step 4: for each {fragment, key} pair TiMR creates an M-R
stage that partitions (maps) the fragment's input by the key and invokes
a generated reducer ``P`` per partition. ``P`` reads the partition's
rows, converts each row into an event (point events for raw log rows;
interval events for intermediate rows carrying ``_re``), pushes them
through an embedded, unmodified DSMS instance running the fragment's CQ
plan, and converts result events back into rows for M-R.

Two practical mechanisms from the paper are implemented here:

* **hash bucketing** (Section III-C.3): a fine-grained key such as
  UserId would create one DSMS instance per user; instead the map phase
  routes by ``hash(key) % num_partitions`` and the CQ's own GroupApply
  separates users inside the partition.
* **multi-input fragments** (Section III-C.4): the k input datasets are
  unioned into one file with an extra ``_src`` column naming the origin;
  the reducer decodes tagged rows straight into per-source event lists.

A stateless fragment folded into its consumer runs as a *kernel*
(:func:`stateless_kernel`): ``kernel(le, re, payload)`` returns ``(le,
re, payload)`` or ``None``, and never writes to the payload it is given.
:func:`kernel_map_fn` adapts one to a single-input stage's ``map_fn``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..mapreduce.job import MapReduceStage, key_by_columns
from ..runtime.context import RunContext
from ..temporal.engine import Engine
from ..temporal.event import Event, events_to_rows, rows_to_events
from ..temporal.time import TICK, validate_interval
from ..temporal.plan import (
    AlterLifetimeNode,
    PlanNode,
    ProjectNode,
    SourceNode,
    WhereNode,
)
from .fragments import Fragment
from .temporal_partition import SpanLayout

#: Column tagging a combined multi-input row with its source dataset.
SRC_COLUMN = "_src"

#: Step kinds of a folded stateless chain (:func:`stateless_kernel`).
_WHERE, _PROJECT, _LIFETIME = range(3)


@dataclass
class InputBinding:
    """How one logical fragment input is fed.

    Attributes:
        logical: the source name the fragment's plan refers to.
        physical: the dataset actually read from the file system.
        transform: optional kernel ``(le, re, payload) -> (le, re,
            payload) | None`` (the folded stateless fragments below this
            input), applied in the map phase / during union
            materialization.
    """

    logical: str
    physical: str
    transform: Optional[object] = None


@dataclass
class CompiledStage:
    """A fragment compiled into an executable M-R stage.

    Attributes:
        fragment: the source fragment.
        stage: the runnable :class:`MapReduceStage`.
        bindings: one :class:`InputBinding` per fragment input.
        needs_input_union: True when the runner must materialize the
            tagged union of several input datasets first.
        span_layout: set when the stage uses temporal partitioning.
    """

    fragment: Fragment
    stage: MapReduceStage
    bindings: List[InputBinding]
    needs_input_union: bool
    span_layout: Optional[SpanLayout] = None

    @property
    def input_name(self) -> str:
        if self.needs_input_union:
            return f"{self.fragment.output_name}.in"
        return self.bindings[0].physical


def _decode_row(row: dict):
    """One M-R row as ``(le, re, payload)``, lifetime validated; the
    payload is a copy, the row's other columns in the row's order."""
    payload = dict(row)
    le = payload.pop("Time")
    re = payload.pop("_re", le + TICK)
    validate_interval(le, re)
    return le, re, payload


def stateless_kernel(plan: PlanNode):
    """Compile a pure stateless unary chain into a kernel.

    Returns ``None`` unless ``plan`` is a chain of Where / Project /
    AlterLifetime nodes over a single source. ``kernel(le, re, payload)``
    returns what the chain makes of that event, as ``(le, re, payload)``,
    or ``None`` when the chain drops it. This is how TiMR folds a
    sub-exchange stateless fragment into the consuming stage's map phase
    instead of paying a whole extra M-R stage (the SCOPE trick of pushing
    selects into extractors).
    """
    chain = []
    node = plan
    while not isinstance(node, SourceNode):
        if not isinstance(node, (WhereNode, ProjectNode, AlterLifetimeNode)):
            return None
        chain.append(node)
        node = node.inputs[0]
    # each stage as (kind, f, g) over the row's (le, re, payload): what
    # the operators' on_event would do, without an Event, a generator
    # and a one-element list per stage per row
    steps = []
    for n in reversed(chain):
        op = n.make_operator()
        if isinstance(n, WhereNode):
            steps.append((_WHERE, op.predicate, None))
        elif isinstance(n, ProjectNode):
            steps.append((_PROJECT, op.fn, None))
        else:
            steps.append((_LIFETIME, op.le_fn, op.re_fn))

    def kernel(le, re, payload):
        for kind, f, g in steps:
            if kind == _WHERE:
                if not f(payload):
                    return None
            elif kind == _PROJECT:
                payload = f(payload)
            else:
                le, re = f(le, re), g(le, re)
                if re <= le:  # empty lifetimes vanish from the relation
                    return None
        return le, re, payload

    return kernel


def _stacked(kernels):
    """Folded fragments feeding one another, as one kernel. Each
    hand-over does what writing a row and reading it back did: the
    lifetime is validated again, and a payload column a Project named
    ``Time`` or ``_re`` does not reach the next fragment."""
    first, rest = kernels[0], kernels[1:]

    def kernel(le, re, payload):
        out = first(le, re, payload)
        for following in rest:
            if out is None:
                return None
            le, re, payload = out
            validate_interval(le, re)
            if "Time" in payload or "_re" in payload:
                payload = {k: v for k, v in payload.items() if k not in ("Time", "_re")}
            out = following(le, re, payload)
        return out

    return kernel


def kernel_map_fn(kernel):
    """A kernel as a single-input stage's ``map_fn``: row in, rows out."""

    def map_fn(row: dict) -> List[dict]:
        out = kernel(*_decode_row(row))
        if out is None:
            return []
        le, re, payload = out
        mapped = dict(payload)
        mapped["Time"] = le
        mapped["_re"] = re
        return [mapped]

    return map_fn


def make_reducer(
    fragment: Fragment,
    span_layout: Optional[SpanLayout] = None,
    tracer=None,
    context: Optional[RunContext] = None,
):
    """Build the stand-alone reducer ``P`` for a fragment.

    The reducer is a pure function of its input partition: it creates a
    fresh embedded engine every invocation, so M-R can re-run it after a
    failure and obtain byte-identical output (Section III-C.1). When a
    ``tracer`` is given each embedded engine records its operator spans
    on it, nesting under whatever span is open at call time (the
    cluster's reduce-partition span). A full ``context`` threads the
    caller's run-wide settings (tracer, clock, batch size) into every
    embedded engine; ``tracer`` overrides its tracer field.
    """
    engine_context = RunContext.of(context, tracer=tracer)
    multi_input = len(fragment.input_names) > 1
    input_names = list(fragment.input_names)

    def reducer(partition_index: int, rows: List[dict]) -> List[dict]:
        if multi_input:
            # pop from a copy: M-R may hand these rows to the reducer again
            sources: Dict[str, List[Event]] = {name: [] for name in input_names}
            for row in rows:
                payload = dict(row)
                source = sources[payload.pop(SRC_COLUMN)]
                le = payload.pop("Time")
                re = payload.pop("_re", le + TICK)
                source.append(Event(le, re, payload))
        else:
            sources = {input_names[0]: rows_to_events(rows)}

        # TiMR.run validated the whole plan before fragmenting; fragment
        # plans are derived from it, so re-validating per partition would
        # only burn time (and fragments share the caller's suppressions).
        engine = Engine(context=engine_context)
        events = engine.run(fragment.root, sources, validate=False)

        if span_layout is not None:
            # The span owns exactly its output interval: clip every result
            # event to it. A lifetime straddling a boundary is truncated
            # here and regenerated (from full window state) by the
            # neighbouring span, so the concatenation is exact.
            start, end = span_layout.output_interval(partition_index)
            clipped = []
            for e in events:
                le = max(e.le, start)
                re = min(e.re, end)
                if re > le:
                    clipped.append(e.with_lifetime(le, re))
            events = clipped
        return events_to_rows(events)

    return reducer


def _add_extents(a, b):
    """Compose two (past, future) extents along a path (None = unbounded)."""
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] + b[1])


def fold_stateless_fragments(fragments: List[Fragment]):
    """Fold stateless key-less fragments into their consumers' map phase.

    A fragment whose plan is a pure stateless chain (Where / Project /
    AlterLifetime over one input), that is not payload-partitioned and
    has exactly one consumer, does not deserve its own M-R stage: its
    work becomes the consuming stage's ``map_fn`` (single-input consumer)
    or is applied while materializing the consumer's input union
    (multi-input consumer). Consumers' effective lifetime extents grow by
    the folded fragments' extents so temporal-partitioning overlaps stay
    correct.

    Returns ``(kept_fragments, plans)`` where ``plans`` maps a kept
    fragment's output name to ``(bindings, effective_extent)``.
    """
    consumer_count: Dict[str, int] = {}
    for f in fragments:
        for name in f.input_names:
            consumer_count[name] = consumer_count.get(name, 0) + 1

    # folded fragment output -> (feeding dataset, kernel, folded extent)
    folded: Dict[str, tuple] = {}
    kept: List[Fragment] = []
    for f in fragments:
        kernel = None
        if (
            not f.is_payload_partitioned
            and len(f.input_names) == 1
            and consumer_count.get(f.output_name, 0) == 1
        ):
            kernel = stateless_kernel(f.root)
        if kernel is not None:
            folded[f.output_name] = (f.input_names[0], kernel, f.extent)
        else:
            kept.append(f)

    def resolve(name: str):
        """Follow chains of folded fragments, stacking their kernels."""
        kernels = []
        extent = (0, 0)
        while name in folded:
            src, kernel, fext = folded[name]
            kernels.append(kernel)
            extent = _add_extents(extent, fext)
            name = src
        if not kernels:
            return name, None, (0, 0)
        kernels.reverse()  # apply lowest fragment first
        kernel = kernels[0] if len(kernels) == 1 else _stacked(kernels)
        return name, kernel, extent

    plans: Dict[str, tuple] = {}
    for f in kept:
        bindings: List[InputBinding] = []
        extent = f.extent
        for logical in f.input_names:
            physical, transform, folded_extent = resolve(logical)
            bindings.append(InputBinding(logical, physical, transform))
            if transform is not None:
                extent = _add_extents(extent, folded_extent)
        plans[f.output_name] = (bindings, extent)
    return kept, plans


def compile_fragment(
    fragment: Fragment,
    num_partitions: int,
    span_layout: Optional[SpanLayout] = None,
    bindings: Optional[List[InputBinding]] = None,
    tracer=None,
    context: Optional[RunContext] = None,
) -> CompiledStage:
    """Turn a fragment into an M-R stage.

    Payload-partitioned fragments route by ``hash(key columns) %
    num_partitions``. Key-less fragments run on a single partition unless
    a ``span_layout`` is supplied, in which case rows are routed to every
    span whose input interval contains their timestamp (rows on span
    boundaries are duplicated — Section III-B).
    """
    if bindings is None:
        bindings = [InputBinding(n, n) for n in fragment.input_names]
    multi = len(bindings) > 1
    map_fn = None
    if not multi and bindings[0].transform is not None:
        map_fn = kernel_map_fn(bindings[0].transform)

    if fragment.is_payload_partitioned:
        if span_layout is not None:
            raise ValueError("temporal partitioning applies to key-less fragments only")
        stage = MapReduceStage(
            name=f"timr.{fragment.output_name}",
            key_fn=key_by_columns(fragment.key),
            reducer=make_reducer(fragment, tracer=tracer, context=context),
            num_partitions=max(1, num_partitions),
            map_fn=map_fn,
        )
    elif span_layout is not None:
        stage = MapReduceStage(
            name=f"timr.{fragment.output_name}",
            key_fn=lambda row: 0,
            reducer=make_reducer(fragment, span_layout, tracer=tracer, context=context),
            num_partitions=span_layout.num_spans,
            partition_fn=lambda row: span_layout.spans_for_time(row["Time"]),
            map_fn=map_fn,
        )
    else:
        stage = MapReduceStage(
            name=f"timr.{fragment.output_name}",
            key_fn=lambda row: 0,
            reducer=make_reducer(fragment, tracer=tracer, context=context),
            num_partitions=1,
            map_fn=map_fn,
        )
    return CompiledStage(
        fragment=fragment,
        stage=stage,
        bindings=bindings,
        needs_input_union=multi,
        span_layout=span_layout,
    )
