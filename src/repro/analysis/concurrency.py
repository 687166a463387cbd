"""Parallel-safety pass: races and determinism hazards under fan-out.

The executors fan ``Cluster`` map and reduce partitions out over
threads or forked processes while replaying the serial schedule, so
output stays byte-identical — *provided* user callables obey the
concurrency invariants the runtime cannot enforce: no shared mutable
capture across schedules, fork/pickle-safe closures under the process
executor, and no ambient per-process state reads. This pass inspects
every runtime callable in the plan (with the bytecode machinery in
:mod:`.callables`) for exactly those hazards:

* mutable module globals (shared by every worker) and, inside GroupApply
  sub-plans, mutable closure cells (shared by every reduce partition
  running the plan) →
  ``parallel.shared-mutable-capture``;
* captured open files / sockets / locks / generators, which ``fork``
  duplicates or invalidates → ``parallel.fork-unsafe-capture``;
* ``os.environ`` / ``os.getenv`` reads not routed through the run
  context → ``parallel.ambient-env``;
* order-dependent accumulation in UDO / aggregate merge functions
  (global or captured-variable writes, in-place container mutation) →
  ``parallel.order-dependent-reduce``.

All four are *warning* severity: a serial run is still correct, so the
pre-flight gate (:func:`validate_plan`) never blocks on them. Instead
:func:`blocking_findings` feeds the **parallel gate**: when a non-serial
executor is requested, ``TiMR.run`` consults it and falls back to
serial with a :class:`~repro.runtime.parallel.
ParallelSafetyWarning` diagnostic. Suppression follows the usual idiom
(``# repro: ignore[rule]`` on the offending operator) and
``--force-parallel`` / ``REPRO_FORCE_PARALLEL`` skip the gate entirely.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

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
    fork_unsafe_captures,
    mutable_closure_cells,
    mutable_global_refs,
    node_callables,
    order_dependent_writes,
)

#: The parallel-safety rules.
STATIC_PARALLEL_RULES = frozenset(
    {
        "parallel.shared-mutable-capture",
        "parallel.fork-unsafe-capture",
        "parallel.ambient-env",
        "parallel.order-dependent-reduce",
    }
)

#: Node types whose callables are merge/reduce-shaped: order-dependent
#: writes there threaten shard-merge commutativity, not just chain
#: isolation, and are reported under ``parallel.order-dependent-reduce``.
_REDUCE_NODES = (WindowedUDONode, SnapshotUDONode, ScanUDONode)


def _group_scoped_ids(root: PlanNode) -> Set[int]:
    """node_ids living inside some GroupApply sub-plan.

    Callables there run once per key chain, and every reduce partition
    running the plan under a parallel executor has its own chains, so
    state captured by such a callable is shared across schedules.
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
                        f"{what} {desc}; accumulation order differs across "
                        "parallel shards, so the merged result is not "
                        "schedule-independent"
                    )
                else:
                    message = (
                        f"{what} {desc}; concurrent map and reduce "
                        "partitions would interleave those writes "
                        "nondeterministically"
                    )
                ctx.report(write_rule, node, message, location=location)
            for name in mutable_global_refs(fn):
                if name in written:
                    continue  # the write finding already names this object
                ctx.report(
                    "parallel.shared-mutable-capture",
                    node,
                    f"{what} references mutable module global {name!r}, "
                    "which every worker thread shares and every forked "
                    "worker snapshots",
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
                        "concurrently running reduce partition",
                        location=location,
                    )
            for name, kind in fork_unsafe_captures(fn):
                ctx.report(
                    "parallel.fork-unsafe-capture",
                    node,
                    f"{what} captures {kind} as {name!r}; it cannot cross "
                    "a fork or pickle boundary, so the process executor "
                    "is not viable for this plan",
                    location=location,
                )
            for ref in ambient_env_reads(fn):
                ctx.report(
                    "parallel.ambient-env",
                    node,
                    f"{what} reads {ref}: ambient per-process state that "
                    "is not routed through RunContext, so forked and "
                    "threaded workers can observe different values",
                    location=location,
                )


# ---------------------------------------------------------------------------
# The parallel gate
# ---------------------------------------------------------------------------

#: Memoized unsuppressed parallel.* findings per plan root (plans are
#: immutable and node ids process-unique, same contract as
#: ``_VALIDATED_OK``).
_GATE_MEMO: Dict[int, tuple] = {}


def parallel_safety_findings(root: PlanNode) -> List:
    """Unsuppressed static ``parallel.*`` diagnostics for a plan.

    Runs the full analyzer (so ``# repro: ignore[...]`` comments apply)
    and keeps only the parallel-safety family; memoized per plan root
    because the gate re-checks on every run.
    """
    cached = _GATE_MEMO.get(root.node_id)
    if cached is None:
        from .core import analyze

        report = analyze(root)
        cached = tuple(
            d for d in report.diagnostics if d.rule in STATIC_PARALLEL_RULES
        )
        if len(_GATE_MEMO) > 100_000:  # unbounded-growth backstop
            _GATE_MEMO.clear()
        _GATE_MEMO[root.node_id] = cached
    return list(cached)


def blocking_findings(root: PlanNode, executor_kind: str) -> List:
    """The findings that make ``executor_kind`` unsafe for this plan.

    Fork-unsafety only matters when workers actually fork: thread
    executors share the process, so ``parallel.fork-unsafe-capture``
    blocks the process executor but not threads.
    """
    findings = parallel_safety_findings(root)
    if executor_kind != "process":
        findings = [
            d for d in findings if d.rule != "parallel.fork-unsafe-capture"
        ]
    return findings
