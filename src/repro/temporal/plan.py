"""Logical CQ plans.

A continuous query is compiled (by the fluent builder in ``query.py``)
into a DAG of :class:`PlanNode` objects — the "CQ plan" of Section II-A.
The same plan serves three consumers:

* the single-node engine (``engine.py``) instantiates fresh stateful
  operators from it and executes;
* TiMR (``repro.timr``) annotates it with exchange operators, derives
  partitioning constraints, and cuts it into fragments;
* tests introspect it.

Nodes are immutable after construction. A node appearing as the input of
several downstream nodes *is* the Multicast of the paper: the engine
evaluates it once and shares its output.

Partitioning metadata (Section VI): every node reports a
:class:`PartitionConstraint` — which payload-column partitionings it can
execute under — and a *lifetime extent* ``(past, future)`` — how far a
node's output at time *t* can depend on input timestamps around *t*,
which TiMR's temporal partitioning uses to size span overlaps.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .operators import (
    AggSpec,
    AlterLifetime,
    AntiSemiJoin,
    Project,
    SnapshotAggregate,
    SnapshotUDO,
    TemporalJoin,
    Union,
    Where,
    WindowedUDO,
    hopping_window,
    shift_lifetime,
    sliding_window,
    to_point_events,
)

_node_counter = itertools.count()

#: Framework modules whose frames are skipped when recording where a plan
#: node was constructed — the interesting frame is the *user's* call site
#: (the analyzer reports it and honours ``# repro: ignore[...]`` comments
#: found on that line). Filled in lazily because several of these modules
#: import this one.
_MACHINERY_BASENAMES = frozenset(
    {
        "plan.py",
        "query.py",
        "streamsql.py",
        "optimizer.py",
        "fragments.py",
        "compile.py",
        "runner.py",
    }
)


def _construction_site() -> Optional[Tuple[str, int]]:
    """(filename, lineno) of the nearest non-framework caller, if any."""
    frame = sys._getframe(1)
    for _ in range(12):
        frame = frame.f_back
        if frame is None:
            return None
        name = os.path.basename(frame.f_code.co_filename)
        if name not in _MACHINERY_BASENAMES:
            return (frame.f_code.co_filename, frame.f_lineno)
    return None


class PartitionConstraint:
    """Which payload partitionings an operator accepts.

    ``kind`` is one of:

    * ``"any"`` — stateless; runs correctly under any partitioning.
    * ``"subset"`` — requires the partitioning key to be a subset of
      ``columns`` (GroupApply keys or equi-join keys).
    * ``"none"`` — cannot be partitioned by any payload column (a global
      aggregate/UDO); only temporal partitioning or a single partition
      is valid.
    """

    __slots__ = ("kind", "columns")

    def __init__(self, kind: str, columns: Tuple[str, ...] = ()):
        if kind not in ("any", "subset", "none"):
            raise ValueError(f"unknown constraint kind {kind!r}")
        self.kind = kind
        self.columns = tuple(columns)

    def accepts(self, key: Tuple[str, ...]) -> bool:
        """True when partitioning by ``key`` preserves this operator's result.

        The empty key means "single partition", which every operator
        accepts.
        """
        if not key:
            return True
        if self.kind == "any":
            return True
        if self.kind == "subset":
            return set(key).issubset(self.columns)
        return False

    def __repr__(self):
        return f"PartitionConstraint({self.kind}, {self.columns})"


ANY = PartitionConstraint("any")
NONE = PartitionConstraint("none")


class PlanNode:
    """Base class for logical plan nodes."""

    #: Human-readable operator name (set by subclasses).
    op_name = "node"

    def __init__(self, inputs: Sequence["PlanNode"], label: Optional[str] = None):
        self.inputs: Tuple[PlanNode, ...] = tuple(inputs)
        self.label = label
        self.node_id = next(_node_counter)
        self.source_location = _construction_site()

    # -- metadata for TiMR ---------------------------------------------------

    def partition_constraint(self) -> PartitionConstraint:
        """Payload partitionings this node accepts (default: stateless)."""
        return ANY

    def lifetime_extent(self) -> Optional[Tuple[int, int]]:
        """(past, future) input-timestamp dependence of output at time t.

        ``None`` means unbounded (temporal partitioning is invalid below
        this node). Extents add along a root-to-leaf path.
        """
        return (0, 0)

    def output_columns(self) -> Optional[frozenset]:
        """Payload columns guaranteed on every output event, or ``None``
        when unknown (opaque projections, undeclared sources).

        The annotation optimizer uses this to avoid partitioning a
        stream on a column it does not carry. Default: pass the single
        input through; leaves and opaque transforms override.
        """
        if len(self.inputs) == 1:
            return self.inputs[0].output_columns()
        return None

    def streaming_future_extent(self):
        """How far output LEs may precede input LEs (streaming safety).

        ``None`` disables streaming for plans containing this node.
        Defaults to the future component of :meth:`lifetime_extent`;
        operators whose extent is unbounded only on the *past* side
        (count windows) override this to stay streamable.
        """
        extent = self.lifetime_extent()
        return None if extent is None else extent[1]

    # -- execution ------------------------------------------------------------

    def make_operator(self):
        """A fresh stateful operator instance (unary/binary nodes only)."""
        raise NotImplementedError(f"{type(self).__name__} has no direct operator")

    # -- plumbing --------------------------------------------------------------

    def describe(self) -> str:
        return self.label or self.op_name

    def __repr__(self):
        return f"<{type(self).__name__}#{self.node_id} {self.describe()}>"


class SourceNode(PlanNode):
    """A named input stream, optionally with a declared payload schema."""

    op_name = "source"

    def __init__(self, name: str, columns: Optional[Sequence[str]] = None):
        super().__init__((), label=name)
        self.name = name
        self.columns = tuple(columns) if columns is not None else None

    def output_columns(self):
        return frozenset(self.columns) if self.columns is not None else None


class GroupInputNode(PlanNode):
    """Placeholder leaf: the per-group sub-stream inside a GroupApply."""

    op_name = "group-input"

    def __init__(self):
        super().__init__((), label="group-input")

    def output_columns(self):
        return None  # depends on the feeding stream


class WhereNode(PlanNode):
    op_name = "where"

    def __init__(self, input_node: PlanNode, predicate, label=None):
        super().__init__((input_node,), label)
        self.predicate = predicate

    def make_operator(self):
        return Where(self.predicate)


class ProjectNode(PlanNode):
    """Payload rewrite; declare ``columns`` so the optimizer can reason
    about partitioning keys across the (otherwise opaque) transform."""

    op_name = "project"

    def __init__(self, input_node: PlanNode, fn, label=None, columns=None):
        super().__init__((input_node,), label)
        self.fn = fn
        self.columns = tuple(columns) if columns is not None else None

    def make_operator(self):
        return Project(self.fn)

    def output_columns(self):
        return frozenset(self.columns) if self.columns is not None else None


class AlterLifetimeNode(PlanNode):
    """Lifetime rewrite; ``kind`` records the specialization for TiMR.

    Kinds: ``window`` (w), ``hop`` (w, h), ``shift`` (delta_le, delta_re),
    ``point``, ``custom`` (opaque le/re functions, unbounded extent).
    """

    op_name = "alter-lifetime"

    def __init__(self, input_node: PlanNode, kind: str, params: dict, label=None):
        super().__init__((input_node,), label)
        self.kind = kind
        self.params = dict(params)

    def make_operator(self):
        p = self.params
        if self.kind == "window":
            return sliding_window(p["w"])
        if self.kind == "hop":
            return hopping_window(p["w"], p["h"])
        if self.kind == "shift":
            return shift_lifetime(p["delta_le"], p["delta_re"])
        if self.kind == "point":
            return to_point_events()
        if self.kind == "custom":
            return AlterLifetime(p["le_fn"], p["re_fn"])
        raise ValueError(f"unknown AlterLifetime kind {self.kind!r}")

    def lifetime_extent(self):
        p = self.params
        if self.kind == "window":
            return (p["w"], 0)
        if self.kind == "hop":
            return (p["w"] + p["h"], 0)
        if self.kind == "shift":
            past = max(0, p["delta_le"], p["delta_re"])
            future = max(0, -p["delta_le"], -p["delta_re"])
            return (past, future)
        if self.kind == "point":
            return (0, 0)
        return None  # custom: opaque, assume unbounded


class CountWindowNode(PlanNode):
    """Count-based window: active set = the last n events.

    Order-sensitive across the whole stream, so not payload-partitionable
    (use it inside a GroupApply for per-key count windows) and opaque to
    temporal partitioning (an event's lifetime can span arbitrary time).
    """

    op_name = "count-window"

    def __init__(self, input_node: PlanNode, n: int, label=None):
        super().__init__((input_node,), label or f"count_window({n})")
        self.n = n

    def make_operator(self):
        from .operators import count_window

        return count_window(self.n)

    def partition_constraint(self):
        return NONE

    def lifetime_extent(self):
        return None  # an event can look back arbitrarily far in time

    def streaming_future_extent(self):
        return 0  # LEs never move: streaming-safe despite the above


class SessionWindowNode(PlanNode):
    """Gap-delimited session lifetimes; order-sensitive like count windows."""

    op_name = "session-window"

    def __init__(self, input_node: PlanNode, gap: int, label=None):
        super().__init__((input_node,), label or f"session_window({gap})")
        self.gap = gap

    def make_operator(self):
        from .operators import session_window

        return session_window(self.gap)

    def partition_constraint(self):
        return NONE

    def lifetime_extent(self):
        return None  # a session can stretch arbitrarily far back

    def streaming_future_extent(self):
        return 0  # LEs never move


class AggregateNode(PlanNode):
    """Snapshot aggregation; a *global* aggregate is not payload-partitionable."""

    op_name = "aggregate"

    def __init__(self, input_node: PlanNode, specs: Sequence[AggSpec], label=None):
        super().__init__((input_node,), label)
        self.specs = list(specs)

    def make_operator(self):
        return SnapshotAggregate(self.specs)

    def partition_constraint(self):
        return NONE

    def output_columns(self):
        return frozenset(s.into for s in self.specs)


class GroupApplyNode(PlanNode):
    """Apply ``subplan`` (rooted at a GroupInputNode) per ``keys`` group."""

    op_name = "group-apply"

    def __init__(
        self,
        input_node: PlanNode,
        keys: Sequence[str],
        subplan_root: PlanNode,
        group_input: GroupInputNode,
        label=None,
    ):
        super().__init__((input_node,), label)
        self.keys = tuple(keys)
        if not self.keys:
            raise ValueError("GroupApply requires at least one key column")
        self.subplan_root = subplan_root
        self.group_input = group_input

    def partition_constraint(self):
        return PartitionConstraint("subset", self.keys)

    def lifetime_extent(self):
        return subplan_extent(self.subplan_root)

    def output_columns(self):
        sub = self.subplan_root.output_columns()
        if sub is None:
            return None
        return sub | frozenset(self.keys)


class UnionNode(PlanNode):
    op_name = "union"

    def __init__(self, left: PlanNode, right: PlanNode, label=None):
        super().__init__((left, right), label)

    def make_operator(self):
        return Union()

    def output_columns(self):
        # a column is guaranteed only if both inputs guarantee it
        left = self.inputs[0].output_columns()
        right = self.inputs[1].output_columns()
        if left is None or right is None:
            return None
        return left & right


class TemporalJoinNode(PlanNode):
    op_name = "temporal-join"

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        on: Sequence[str],
        residual=None,
        select=None,
        label=None,
        columns=None,
    ):
        super().__init__((left, right), label)
        self.on = tuple(on)
        self.residual = residual
        self.select = select
        self.columns = tuple(columns) if columns is not None else None

    def make_operator(self):
        return TemporalJoin(self.on, residual=self.residual, select=self.select)

    def partition_constraint(self):
        return PartitionConstraint("subset", self.on)

    def output_columns(self):
        if self.columns is not None:
            return frozenset(self.columns)
        if self.select is not None:
            return None  # opaque combiner
        left = self.inputs[0].output_columns()
        right = self.inputs[1].output_columns()
        if left is None or right is None:
            return None
        return left | right


class AntiSemiJoinNode(PlanNode):
    op_name = "anti-semi-join"

    def __init__(
        self, left: PlanNode, right: PlanNode, on: Sequence[str], residual=None, label=None
    ):
        super().__init__((left, right), label)
        self.on = tuple(on)
        self.residual = residual

    def make_operator(self):
        return AntiSemiJoin(self.on, residual=self.residual)

    def partition_constraint(self):
        return PartitionConstraint("subset", self.on)

    def output_columns(self):
        return self.inputs[0].output_columns()


class WindowedUDONode(PlanNode):
    op_name = "windowed-udo"

    def __init__(self, input_node: PlanNode, w: int, h: int, fn, skip_empty=True, label=None):
        super().__init__((input_node,), label)
        self.w = w
        self.h = h
        self.fn = fn
        self.skip_empty = skip_empty

    def make_operator(self):
        return WindowedUDO(self.w, self.h, self.fn, skip_empty=self.skip_empty)

    def partition_constraint(self):
        return NONE

    def output_columns(self):
        return None

    def lifetime_extent(self):
        return (self.w + self.h, 0)


class SnapshotUDONode(PlanNode):
    op_name = "snapshot-udo"

    def __init__(self, input_node: PlanNode, fn, label=None):
        super().__init__((input_node,), label)
        self.fn = fn

    def make_operator(self):
        return SnapshotUDO(self.fn)

    def partition_constraint(self):
        return NONE

    def output_columns(self):
        return None


class ScanUDONode(PlanNode):
    """Stateful per-event fold (ScanUDO); order-sensitive, so global."""

    op_name = "scan-udo"

    def __init__(self, input_node: PlanNode, state_factory, fn, label=None):
        super().__init__((input_node,), label)
        self.state_factory = state_factory
        self.fn = fn

    def make_operator(self):
        from .operators.scan import ScanUDO

        return ScanUDO(self.state_factory, self.fn)

    def partition_constraint(self):
        return NONE

    def output_columns(self):
        return None


class ExchangeNode(PlanNode):
    """Logical repartitioning marker inserted by TiMR (Section III-A.2).

    ``key`` is the partitioning column set; the empty tuple means the
    special random partitioning and ``None`` components never occur. In
    the single-node engine an exchange is the identity.
    """

    op_name = "exchange"

    def __init__(self, input_node: PlanNode, key: Sequence[str], label=None):
        super().__init__((input_node,), label or f"exchange({','.join(key) or 'TIME'})")
        self.key = tuple(key)


# ---------------------------------------------------------------------------
# Plan rewriting
# ---------------------------------------------------------------------------


def clone_with_inputs(node: PlanNode, inputs: Sequence[PlanNode]) -> PlanNode:
    """A copy of ``node`` with different input nodes (used by TiMR rewrites)."""
    inputs = tuple(inputs)
    if isinstance(node, (SourceNode, GroupInputNode)):
        raise ValueError(f"{node!r} is a leaf; it has no inputs to replace")
    if isinstance(node, WhereNode):
        return WhereNode(inputs[0], node.predicate, node.label)
    if isinstance(node, ProjectNode):
        return ProjectNode(inputs[0], node.fn, node.label, node.columns)
    if isinstance(node, AlterLifetimeNode):
        return AlterLifetimeNode(inputs[0], node.kind, node.params, node.label)
    if isinstance(node, CountWindowNode):
        return CountWindowNode(inputs[0], node.n, node.label)
    if isinstance(node, SessionWindowNode):
        return SessionWindowNode(inputs[0], node.gap, node.label)
    if isinstance(node, AggregateNode):
        return AggregateNode(inputs[0], node.specs, node.label)
    if isinstance(node, GroupApplyNode):
        return GroupApplyNode(
            inputs[0], node.keys, node.subplan_root, node.group_input, node.label
        )
    if isinstance(node, UnionNode):
        return UnionNode(inputs[0], inputs[1], node.label)
    if isinstance(node, TemporalJoinNode):
        return TemporalJoinNode(
            inputs[0], inputs[1], node.on, node.residual, node.select, node.label,
            node.columns,
        )
    if isinstance(node, AntiSemiJoinNode):
        return AntiSemiJoinNode(inputs[0], inputs[1], node.on, node.residual, node.label)
    if isinstance(node, WindowedUDONode):
        return WindowedUDONode(
            inputs[0], node.w, node.h, node.fn, node.skip_empty, node.label
        )
    if isinstance(node, SnapshotUDONode):
        return SnapshotUDONode(inputs[0], node.fn, node.label)
    if isinstance(node, ScanUDONode):
        return ScanUDONode(inputs[0], node.state_factory, node.fn, node.label)
    if isinstance(node, ExchangeNode):
        return ExchangeNode(inputs[0], node.key, node.label)
    raise TypeError(f"cannot clone {type(node).__name__}")


def rewrite(root: PlanNode, replacements: dict) -> PlanNode:
    """Rebuild the plan with ``replacements`` (node_id -> new node) applied.

    Unchanged subtrees are shared, and a node reachable via several paths
    is cloned once (preserving Multicast).
    """
    memo: dict = {}

    def visit(node: PlanNode) -> PlanNode:
        if node.node_id in replacements:
            return replacements[node.node_id]
        if node.node_id in memo:
            return memo[node.node_id]
        if not node.inputs:
            memo[node.node_id] = node
            return node
        new_inputs = [visit(c) for c in node.inputs]
        if all(a is b for a, b in zip(new_inputs, node.inputs)):
            new_node = node
        else:
            new_node = clone_with_inputs(node, new_inputs)
        memo[node.node_id] = new_node
        return new_node

    return visit(root)


# ---------------------------------------------------------------------------
# Plan traversal helpers
# ---------------------------------------------------------------------------


def topological_order(root: PlanNode) -> List[PlanNode]:
    """All nodes reachable from ``root``, children before parents."""
    order: List[PlanNode] = []
    seen = set()

    def visit(node: PlanNode):
        if node.node_id in seen:
            return
        seen.add(node.node_id)
        for child in node.inputs:
            visit(child)
        order.append(node)

    visit(root)
    return order


def source_nodes(root: PlanNode) -> List[SourceNode]:
    """All distinct SourceNode leaves under ``root``."""
    return [n for n in topological_order(root) if isinstance(n, SourceNode)]


def subplan_extent(root: PlanNode) -> Optional[Tuple[int, int]]:
    """Accumulated (past, future) lifetime extent of a whole plan.

    Extents add along each root-to-leaf path; the plan extent is the
    component-wise maximum over paths. ``None`` propagates (unbounded).
    """
    memo = {}

    def visit(node: PlanNode) -> Optional[Tuple[int, int]]:
        if node.node_id in memo:
            return memo[node.node_id]
        own = node.lifetime_extent()
        if own is None:
            memo[node.node_id] = None
            return None
        if not node.inputs:
            memo[node.node_id] = own
            return own
        best: Optional[Tuple[int, int]] = (0, 0)
        for child in node.inputs:
            sub = visit(child)
            if sub is None:
                best = None
                break
            best = (max(best[0], sub[0]), max(best[1], sub[1]))
        result = None if best is None else (own[0] + best[0], own[1] + best[1])
        memo[node.node_id] = result
        return result

    return visit(root)


def count_operators(root: PlanNode) -> int:
    """Number of logical operators in a plan, including sub-plans."""
    total = 0
    for node in topological_order(root):
        total += 1
        if isinstance(node, GroupApplyNode):
            total += count_operators(node.subplan_root) - 1  # exclude placeholder
    return total


def render(
    root: PlanNode,
    indent: str = "",
    annotate: Optional[Callable[[PlanNode], Iterable[str]]] = None,
) -> str:
    """A readable multi-line rendering of the plan tree (for debugging).

    ``annotate(node)`` may return extra lines attached under a node; the
    analyzer uses it to point a caret at offending operators.
    """
    lines: List[str] = []

    def visit(node: PlanNode, depth: int, printed: set):
        prefix = indent + "  " * depth
        again = " (shared)" if node.node_id in printed else ""
        lines.append(f"{prefix}{node.op_name}: {node.describe()}{again}")
        if annotate is not None:
            for note in annotate(node):
                lines.append(f"{prefix}^~~ {note}")
        if node.node_id in printed:
            return
        printed.add(node.node_id)
        if isinstance(node, GroupApplyNode):
            lines.append(f"{prefix}  [per-group subplan, keys={node.keys}]")
            visit(node.subplan_root, depth + 2, printed)
        for child in node.inputs:
            visit(child, depth + 1, printed)

    visit(root, 0, set())
    return "\n".join(lines)
