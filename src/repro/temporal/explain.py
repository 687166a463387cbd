"""Query diagnostics: the ``explain`` report.

``explain(query)`` produces a human-readable report of everything the
framework knows about a CQ before running it: the operator tree, each
operator's partitioning constraint, the plan's lifetime extent (hence
temporal-partitioning eligibility), known payload columns, whether the
plan can run on the streaming engine, and the findings of the static
pre-flight analyzer (:mod:`repro.analysis`). ``explain_timr`` extends it
with the chosen annotation and the fragment/M-R-stage breakdown.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .plan import (
    AggregateNode,
    GroupApplyNode,
    PlanNode,
    SourceNode,
    render,
    subplan_extent,
    topological_order,
)
from .query import Query


def _streamable(root: PlanNode) -> Optional[str]:
    """None when streamable, else the operator with an unbounded future."""
    for node in topological_order(root):
        if node.lifetime_extent()[1] is None:
            if isinstance(node, GroupApplyNode):
                return _streamable(node.subplan_root)
            return node.describe()
    return None


def _group_paths(node: GroupApplyNode, indent: str) -> List[str]:
    """The physical path of a GroupApply's per-key sub-plan."""
    from ..runtime.dataflow import _flat_plan, _keyed_aggregate

    flat = _flat_plan(node)
    keyed = _keyed_aggregate(node, flat) is not None
    lines = [
        f"{indent}per key: one keyed sweep over every key's rows, a pane "
        "state per key and no per-key chain"
        if keyed
        else f"{indent}per key: one flat chain, the operators driven in "
        "topological order over per-node lists"
    ]
    stages, shared = flat.nodes, flat.shared
    for i, stage in enumerate(stages):
        last = i == len(stages) - 1
        operator = None
        if isinstance(stage, AggregateNode):
            operator = shared[i] or stage.make_operator()
        if isinstance(stage, GroupApplyNode):
            path = "a nested GroupApply: one scheduler per key"
        elif flat.futures[i] is None:
            path = "deferred: buffered per key, applied at the flush"
        elif not keyed:
            path = (
                "on_batch per stage"
                if len(stage.inputs) == 1
                else "both inputs merged, right side first at ties"
            )
        elif isinstance(stage, AggregateNode):
            path = "folded per key in the keyed sweep"
            if not operator.reads_payloads:
                path += " (count only: no payload column built)"
        else:
            path = "computed inside the keyed sweep, no events built"
        if isinstance(stage, AggregateNode):
            path += ", " + operator.pane_kind()
        if last:
            path += (
                "; key columns attached to its payloads in place"
                if keyed or flat.attach_in_place
                else "; key columns attached to a copy of each payload"
            )
        lines.append(f"{indent}  {stage.describe()}: {path}")
        if isinstance(stage, GroupApplyNode):
            lines.extend(_group_paths(stage, indent + "    "))
    return lines


def explain(query: Union[Query, PlanNode], stats=None) -> str:
    """A multi-line report about a temporal query's execution properties.

    With ``stats`` (an :class:`~repro.temporal.engine.EngineStats` from a
    prior run, e.g. ``engine.last_stats``) the physical-path section
    names every resolution that run took (``executor.serial`` for a
    context naming a parallel executor, say) and the report gains a
    TRACE/METRICS section: totals, throughput, and per-operator event
    counts keyed by plan path.
    """
    root = query.to_plan() if isinstance(query, Query) else query
    lines: List[str] = ["PLAN", render(root, indent="  "), "", "PROPERTIES"]

    sources = [n for n in topological_order(root) if isinstance(n, SourceNode)]
    lines.append(f"  sources: {sorted({s.name for s in sources})}")

    cols = root.output_columns()
    lines.append(
        "  output columns: "
        + (", ".join(sorted(cols)) if cols is not None else "(unknown)")
    )

    extent = subplan_extent(root)
    past, future = ("unbounded" if s is None else f"{s} ticks" for s in extent)
    lines.append(
        f"  lifetime extent: past={past} future={future} "
        + ("(no temporal partitioning)" if None in extent
           else "(temporal partitioning eligible)")
    )

    constraints = []
    for node in topological_order(root):
        c = node.partition_constraint()
        if c.kind == "subset":
            constraints.append(f"{node.describe()}: key ⊆ {set(c.columns)}")
        elif c.kind == "none":
            constraints.append(f"{node.describe()}: not payload-partitionable")
    if constraints:
        lines.append("  partitioning constraints:")
        lines.extend(f"    {c}" for c in constraints)
    else:
        lines.append("  partitioning constraints: none (fully stateless)")

    offender = _streamable(root)
    if offender is None:
        lines.append("  streaming: supported (push + watermarks)")
    else:
        lines.append(
            f"  streaming: unsupported (unbounded future extent in {offender!r})"
        )

    from ..analysis import analyze

    report = analyze(root)
    lines.append("")
    lines.append("LINT")
    if report.ok:
        lines.append("  no findings")
    else:
        lines.append(f"  {report.summary()}")
        lines.extend(f"  {d.format()}" for d in report.diagnostics)

    lines.append("")
    lines.append("PHYSICAL PATH")
    lines.append(
        "  rows (List[Event]) between operators; lifetimes and payloads "
        "read off them inside a keyed window→aggregate sweep"
    )
    lines.append(
        "  result kept as EventColumns: int64 les/res plus payload values "
        "per key layout; each access builds a fresh Event"
    )
    for node in topological_order(root):
        if isinstance(node, GroupApplyNode):
            lines.append(f"  {node.describe()}:")
            lines.append("    scheduling: the driver's local wave, serially")
            lines.extend(_group_paths(node, "    "))
    if stats is not None:
        for name, entry in sorted(stats.resolutions.items()):
            lines.append(
                f"  resolved this run: {name} x {entry['count']}: "
                f"{entry['reason']}"
            )

    if stats is not None:
        lines.append("")
        lines.append("TRACE/METRICS")
        lines.append(
            f"  input events: {stats.input_events}  "
            f"output events: {stats.output_events}"
        )
        if stats.wall_seconds > 0:
            lines.append(
                f"  wall: {stats.wall_seconds:.4f}s "
                f"({stats.events_per_second:,.0f} events/sec)"
            )
        if stats.operator_events:
            lines.append("  operator events (plan-path keyed):")
            width = max(len(k) for k in stats.operator_events)
            for key in sorted(stats.operator_events):
                label = stats.operator_labels.get(key, "")
                lines.append(
                    f"    {key:<{width}}  {stats.operator_events[key]:>8}"
                    + (f"  {label}" if label and label not in key else "")
                )
    return "\n".join(lines)


def explain_timr(
    query: Union[Query, PlanNode],
    statistics=None,
    job_name: str = "timr",
    stats=None,
) -> str:
    """``explain`` plus TiMR's annotation choice and fragment breakdown."""
    from ..timr.fragments import make_fragments
    from ..timr.optimizer import Statistics, annotate_plan
    from ..timr.compile import fold_stateless_fragments
    from .plan import ExchangeNode

    root = query.to_plan() if isinstance(query, Query) else query
    lines = [explain(root, stats=stats), "", "TIMR ANNOTATION"]
    has_hints = any(
        isinstance(n, ExchangeNode) for n in topological_order(root)
    )
    if has_hints:
        plan = root
        lines.append("  explicit .exchange() hints present; optimizer skipped")
    else:
        result = annotate_plan(root, statistics or Statistics())
        plan = result.plan
        lines.append(
            f"  optimizer chose delivery key {result.key!r} "
            f"at estimated cost {result.cost:.1f}"
        )
    fragments = make_fragments(plan, job_name)
    kept, plans = fold_stateless_fragments(fragments)
    lines.append(
        f"  fragments: {len(fragments)} "
        f"({len(fragments) - len(kept)} folded into map phases)"
    )
    lines.append("  M-R stages:")
    for fragment in kept:
        bindings, extent = plans[fragment.output_name]
        inputs = ", ".join(
            b.physical + ("*" if b.transform else "") for b in bindings
        )
        key = ",".join(fragment.key) if fragment.key else "<temporal/single>"
        lines.append(
            f"    stage {fragment.output_name}: partition by ({key}) "
            f"reading [{inputs}]  (* = folded map transform)"
        )
    return "\n".join(lines)
