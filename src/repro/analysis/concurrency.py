"""Capture-safety pass: state that makes output depend on partitioning.

Runs are serial, and a TiMR job's parallelism is its M-R partitions:
every reduce partition runs the same plan over its share of the keys,
and a failed or resumed stage runs it again. Output is therefore a
function of the data only *provided* user callables keep state to the
partition that owns it. This pass inspects every runtime callable in
the plan (with the bytecode machinery in :mod:`.callables`) for the
captures that break that, so output changes with the partition count
or with whether a job was resumed:

* mutable module globals (shared by every partition and every run) and,
  inside GroupApply sub-plans, mutable closure cells (shared by every
  key's chain) → ``parallel.shared-mutable-capture``;
* ``os.environ`` / ``os.getenv`` reads not routed through the run
  context → ``parallel.ambient-env``;
* order-dependent accumulation in UDO / aggregate merge functions
  (global or captured-variable writes, in-place container mutation) →
  ``parallel.order-dependent-reduce``.

All three are *warning* severity: the pre-flight gate
(:func:`validate_plan`) never blocks on them. Suppression follows the
usual idiom (``# repro: ignore[rule]`` on the offending operator).
"""

from __future__ import annotations

from typing import Set, Tuple

from ..temporal.plan import (
    AggregateNode,
    GroupApplyNode,
    PlanNode,
    ScanUDONode,
    SnapshotUDONode,
    WindowedUDONode,
)
from .callables import (
    ambient_env_reads,
    callable_location,
    mutable_closure_cells,
    mutable_global_refs,
    node_callables,
    order_dependent_writes,
)

#: Node types whose callables are merge/reduce-shaped: order-dependent
#: writes there threaten merge commutativity, not just chain isolation,
#: and are reported under ``parallel.order-dependent-reduce``.
_REDUCE_NODES = (WindowedUDONode, SnapshotUDONode, ScanUDONode)


def _group_scoped_ids(root: PlanNode) -> Set[int]:
    """node_ids living inside some GroupApply sub-plan.

    Callables there run once per key chain, and which keys share a
    reduce partition depends on the partition count, so state captured
    by such a callable is shared across keys that should not see it.
    """
    ids: Set[int] = set()
    seen: Set[Tuple[int, bool]] = set()

    def visit(node: PlanNode, in_group: bool) -> None:
        if (node.node_id, in_group) in seen:
            return
        seen.add((node.node_id, in_group))
        if in_group:
            ids.add(node.node_id)
        if isinstance(node, GroupApplyNode):
            visit(node.subplan_root, True)
        for child in node.inputs:
            visit(child, in_group)

    visit(root, False)
    return ids


def _node_callables_with_aggregates(node: PlanNode):
    """``node_callables`` plus any callables hiding in aggregate params.

    Built-in aggregates (sum/count/...) are known-commutative classes;
    a *callable* handed to an aggregate spec (a custom merge function)
    is user code and gets the same scrutiny as a UDO.
    """
    out = list(node_callables(node))
    if isinstance(node, AggregateNode):
        for spec in node.specs:
            for pname, value in sorted(spec.params.items()):
                if callable(value):
                    out.append((value, f"aggregate {spec.kind!r} param {pname!r}"))
    return out


def concurrency_pass(ctx) -> None:
    grouped = _group_scoped_ids(ctx.root)
    for node in ctx.all_nodes():
        in_group = node.node_id in grouped
        reduce_like = isinstance(node, _REDUCE_NODES) or isinstance(
            node, AggregateNode
        )
        for fn, what in _node_callables_with_aggregates(node):
            location = callable_location(fn) or node.source_location
            writes = order_dependent_writes(fn)
            written = {name for name, _ in writes}
            write_rule = (
                "parallel.order-dependent-reduce"
                if reduce_like
                else "parallel.shared-mutable-capture"
            )
            for _name, desc in writes:
                if reduce_like:
                    message = (
                        f"{what} {desc}; accumulation order follows the "
                        "partitioning, so the result changes with the "
                        "partition count and on resume"
                    )
                else:
                    message = (
                        f"{what} {desc}; every map and reduce partition "
                        "writes the same object, so output changes with "
                        "the partition count and on resume"
                    )
                ctx.report(write_rule, node, message, location=location)
            for name in mutable_global_refs(fn):
                if name in written:
                    continue  # the write finding already names this object
                ctx.report(
                    "parallel.shared-mutable-capture",
                    node,
                    f"{what} references mutable module global {name!r}, "
                    "which every partition and every run shares",
                    location=location,
                )
            if in_group:
                for name in mutable_closure_cells(fn):
                    if name in written:
                        continue
                    ctx.report(
                        "parallel.shared-mutable-capture",
                        node,
                        f"{what} captures mutable object {name!r} inside a "
                        "GroupApply sub-plan; one cell is shared by every "
                        "key's chain",
                        location=location,
                    )
            for ref in ambient_env_reads(fn):
                ctx.report(
                    "parallel.ambient-env",
                    node,
                    f"{what} reads {ref}: ambient per-process state that "
                    "is not routed through RunContext, so a rerun or a "
                    "resumed job can observe another value",
                    location=location,
                )
