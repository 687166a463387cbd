"""Compiling fragments into map-reduce stages with embedded-DSMS reducers.

Section III-A step 4: for each {fragment, key} pair TiMR creates an M-R
stage that partitions (maps) the fragment's input by the key and invokes
a generated reducer ``P`` per partition. ``P`` hands the partition's
rows to an embedded, unmodified DSMS instance running the fragment's CQ
plan, which reads each row as an event (a point event for a raw log
row, an interval event for an intermediate row carrying ``_re``), and
converts result events back into rows for M-R.

Two practical mechanisms from the paper are implemented here:

* **hash bucketing** (Section III-C.3): a fine-grained key such as
  UserId would create one DSMS instance per user; instead the map phase
  routes by ``hash(key) % num_partitions`` and the CQ's own GroupApply
  separates users inside the partition.
* **multi-input fragments** (Section III-C.4): the stage's map phase
  tags each input's rows with a ``_src`` column naming the origin
  (:func:`input_map_fns`); the reducer splits the partition by that
  column into per-source row lists, which its engine decodes without it.

A stateless fragment folded into its consumer runs as a *kernel*
(:func:`stateless_kernel`): ``kernel(le, re, payload)`` returns ``(le,
re, payload)`` or ``None``, and never writes to the payload it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional

from ..mapreduce.job import MapFn, MapReduceStage, key_by_columns
from ..runtime.context import DEFAULT_CONTEXT, RunContext
from ..temporal.engine import Engine
from ..temporal.event import (
    SRC_COLUMN,
    Batch,
    decode_row,
    decode_rows,
    encode_row,
    events_to_rows,
)
from ..temporal.operators.stateless import event_kernel
from ..temporal.plan import (
    AlterLifetimeNode,
    PlanNode,
    ProjectNode,
    SourceNode,
    WhereNode,
    path_extent,
)
from .fragments import Fragment
from .temporal_partition import SpanLayout


@dataclass
class InputBinding:
    """How one logical fragment input is fed.

    Attributes:
        logical: the source name the fragment's plan refers to.
        physical: the dataset actually read from the file system.
        transform: optional kernel ``(le, re, payload) -> (le, re,
            payload) | None`` (the folded stateless fragments below this
            input), applied in the map phase.
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
        inputs: ``Cluster.run_stage``'s inputs (:func:`input_map_fns`).
        span_layout: set when the stage uses temporal partitioning.
    """

    fragment: Fragment
    stage: MapReduceStage
    bindings: List[InputBinding]
    inputs: Dict[str, Optional[MapFn]]
    span_layout: Optional[SpanLayout] = None


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
    return event_kernel(n.make_operator() for n in reversed(chain))


def _stacked(kernels):
    """Folded fragments feeding one another, as one kernel. Each
    hand-over writes the row and reads it back, as two stages did: the
    lifetime is checked again, and a payload column a Project named
    ``Time`` or ``_re`` does not reach the next fragment."""
    first, rest = kernels[0], kernels[1:]

    def kernel(le, re, payload):
        out = first(le, re, payload)
        for following in rest:
            if out is None:
                return None
            out = following(*decode_row(encode_row(*out)))
        return out

    return kernel


def kernel_map_fn(kernel):
    """A kernel as a single-input stage's map function: a partition in,
    the rows the kernel keeps out."""

    def map_fn(rows: List[dict]) -> List[dict]:
        out = []
        for kept in map(kernel, *decode_rows(rows)):
            if kept is not None:
                out.append(encode_row(*kept))
        return out

    return map_fn


def _tagging_map_fn(bindings: List[InputBinding]):
    """One dataset's map function in a multi-input stage: the partition
    is decoded once if any binding on it is folded, and each binding
    that keeps a row emits it tagged with the binding's ``_src``."""
    members = [(b.logical, b.transform) for b in bindings]
    decodes = any(kernel is not None for _, kernel in members)

    def map_fn(rows: List[dict]) -> List[dict]:
        out = []
        columns = decode_rows(rows) if decodes else (repeat(None),) * 3
        for row, le, re, payload in zip(rows, *columns):
            for tag, kernel in members:
                if kernel is None:
                    tagged = dict(row)
                else:
                    kept = kernel(le, re, payload)
                    if kept is None:
                        continue
                    tagged = encode_row(*kept)
                tagged[SRC_COLUMN] = tag
                out.append(tagged)
        return out

    return map_fn


def input_map_fns(bindings: List[InputBinding]) -> Dict[str, Optional[MapFn]]:
    """Each dataset a stage reads, in binding order, with its map
    function: untagged for one binding, else one tagging function per
    dataset however many bindings share it (Section III-C.4)."""
    if len(bindings) == 1:
        kernel = bindings[0].transform
        return {bindings[0].physical: None if kernel is None else kernel_map_fn(kernel)}
    by_physical: Dict[str, List[InputBinding]] = {}
    for binding in bindings:
        by_physical.setdefault(binding.physical, []).append(binding)
    return {physical: _tagging_map_fn(members) for physical, members in by_physical.items()}


def make_reducer(
    fragment: Fragment,
    span_layout: Optional[SpanLayout] = None,
    context: Optional[RunContext] = None,
):
    """Build the stand-alone reducer ``P`` for a fragment.

    The reducer is a pure function of its input partition: it creates a
    fresh embedded engine every invocation, so M-R can re-run it after a
    failure and obtain byte-identical output (Section III-C.1). The
    ``context`` threads the caller's run-wide settings (tracer, clock,
    batch size) into every embedded engine; with a tracer, each engine
    records its operator spans under whatever span is open at call time
    (the cluster's reduce-partition span).
    """
    # the TiMR run names a parallel executor's resolution once, not
    # once per reducer call
    engine_context = (context if context is not None else DEFAULT_CONTEXT).derive(
        executor=None
    )
    multi_input = len(fragment.input_names) > 1
    input_names = list(fragment.input_names)

    def reducer(partition_index: int, rows: List[dict]) -> List[dict]:
        # the engine takes the rows as they are and decodes them only
        # where it reads them as events, into copies: M-R may hand these
        # rows to the reducer again
        if multi_input:
            parts = {name: [] for name in input_names}
            for row in rows:
                parts[row[SRC_COLUMN]].append(row)
            sources = {name: Batch.source(part, tagged=True) for name, part in parts.items()}
        else:
            sources = {input_names[0]: rows}

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


def fold_stateless_fragments(fragments: List[Fragment]):
    """Fold stateless key-less fragments into their consumers' map phase.

    A fragment whose plan is a pure stateless chain (Where / Project /
    AlterLifetime over one input), that is not payload-partitioned and
    has exactly one consumer, does not deserve its own M-R stage: its
    work runs in the map function of the consuming stage's input
    (:func:`input_map_fns`). Consumers' effective lifetime extents grow by
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
            extent = path_extent(extent, fext)
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
                extent = path_extent(extent, folded_extent)
        plans[f.output_name] = (bindings, extent)
    return kept, plans


def compile_fragment(
    fragment: Fragment,
    num_partitions: int,
    span_layout: Optional[SpanLayout] = None,
    bindings: Optional[List[InputBinding]] = None,
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

    if fragment.is_payload_partitioned:
        if span_layout is not None:
            raise ValueError("temporal partitioning applies to key-less fragments only")
        stage = MapReduceStage(
            name=f"timr.{fragment.output_name}",
            key_fn=key_by_columns(fragment.key),
            reducer=make_reducer(fragment, context=context),
            num_partitions=max(1, num_partitions),
        )
    elif span_layout is not None:
        stage = MapReduceStage(
            name=f"timr.{fragment.output_name}",
            key_fn=lambda row: 0,
            reducer=make_reducer(fragment, span_layout, context=context),
            num_partitions=span_layout.num_spans,
            partition_fn=lambda row: span_layout.spans_for_lifetime(*decode_row(row)[:2]),
        )
    else:
        stage = MapReduceStage(
            name=f"timr.{fragment.output_name}",
            key_fn=lambda row: 0,
            reducer=make_reducer(fragment, context=context),
            num_partitions=1,
        )
    return CompiledStage(
        fragment=fragment,
        stage=stage,
        bindings=bindings,
        inputs=input_map_fns(bindings),
        span_layout=span_layout,
    )
