"""Fluent, LINQ-like query builder.

Users write temporal analytics as declarative, scale-out-agnostic CQs
(Section III, step 1). The paper's running example::

    var clickCount = from e in inputStream
                     where e.StreamId == 1
                     group e by e.AdId into grp
                     from w in grp.SlidingWindow(TimeSpan.FromHours(6))
                     select new Output { ClickCount = w.Count(), .. };

reads almost identically here::

    click_count = (
        Query.source("input")
        .where(lambda e: e["StreamId"] == 1)
        .group_apply("AdId", lambda g: g.window(hours(6)).count(into="ClickCount"))
    )

A :class:`Query` wraps a plan node; every method returns a new Query, so
queries compose and can be multicast (use one Query as input to several
others). ``.to_plan()`` yields the logical plan consumed by the engine
and by TiMR.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union as TypingUnion

from .operators import AggSpec
from .plan import (
    AggregateNode,
    AlterLifetimeNode,
    AntiSemiJoinNode,
    GroupApplyNode,
    GroupInputNode,
    PlanNode,
    ProjectNode,
    SnapshotUDONode,
    SourceNode,
    TemporalJoinNode,
    UnionNode,
    WhereNode,
    WindowedUDONode,
)


class Query:
    """A composable temporal query (wraps a logical plan node)."""

    def __init__(self, node: PlanNode):
        self._node = node

    # -- roots ----------------------------------------------------------------

    @staticmethod
    def source(name: str, columns: Optional[Sequence[str]] = None) -> "Query":
        """A named input stream (bound to events at execution time).

        Declaring ``columns`` (the payload schema) lets TiMR's optimizer
        reject partitioning keys the stream does not carry.
        """
        return Query(SourceNode(name, columns))

    # -- stateless ------------------------------------------------------------

    def where(
        self, predicate: Callable[[dict], bool], label: str = None
    ) -> "Query":
        """Keep events whose payload satisfies ``predicate``."""
        return Query(WhereNode(self._node, predicate, label))

    def where_equals(self, key: str, value, label: str = None) -> "Query":
        """Keep events whose payload has ``p[key] == value``."""
        return self.where(lambda p, _k=key, _v=value: p[_k] == _v, label=label)

    def where_greater(self, key: str, value, label: str = None) -> "Query":
        """Keep events whose payload has ``p[key] > value``."""
        return self.where(lambda p, _k=key, _v=value: p[_k] > _v, label=label)

    def project(
        self,
        fn: Callable[[dict], dict],
        label: str = None,
        columns: Optional[Sequence[str]] = None,
    ) -> "Query":
        """Rewrite payloads with ``fn``; declare output ``columns`` when
        known so scale-out partitioning can see through the transform."""
        return Query(ProjectNode(self._node, fn, label, columns))

    def select_columns(self, *columns: str) -> "Query":
        """Keep only the named payload columns."""
        cols = tuple(columns)
        return self.project(
            lambda p, _cols=cols: {c: p[c] for c in _cols},
            label=f"select({','.join(cols)})",
            columns=cols,
        )

    # -- windowing (AlterLifetime) ---------------------------------------------

    def window(self, w: int) -> "Query":
        """Sliding window: events stay active for ``w`` ticks."""
        return Query(AlterLifetimeNode(self._node, "window", {"w": w}, f"window({w})"))

    def hopping_window(self, w: int, h: int) -> "Query":
        """Hopping window of width ``w`` advancing every ``h`` ticks."""
        return Query(
            AlterLifetimeNode(self._node, "hop", {"w": w, "h": h}, f"hop({w},{h})")
        )

    def shift(self, delta_le: int, delta_re: Optional[int] = None) -> "Query":
        """Shift lifetimes (e.g. ``shift(-d, 0)`` extends LE ``d`` into the past)."""
        if delta_re is None:
            delta_re = delta_le
        return Query(
            AlterLifetimeNode(
                self._node,
                "shift",
                {"delta_le": delta_le, "delta_re": delta_re},
                f"shift({delta_le},{delta_re})",
            )
        )

    def count_window(self, n: int) -> "Query":
        """Keep the last ``n`` events active (Figure 3's count window)."""
        from .plan import CountWindowNode

        return Query(CountWindowNode(self._node, n))

    def session_window(self, gap: int) -> "Query":
        """Events stay active for their whole gap-delimited session."""
        from .plan import SessionWindowNode

        return Query(SessionWindowNode(self._node, gap))

    def to_points(self) -> "Query":
        """Collapse every event to a point event at its LE."""
        return Query(AlterLifetimeNode(self._node, "point", {}, "to_points"))

    def alter_lifetime(self, le_fn, re_fn, label: str = None) -> "Query":
        """Fully custom lifetime rewrite (opaque to temporal partitioning)."""
        return Query(
            AlterLifetimeNode(
                self._node, "custom", {"le_fn": le_fn, "re_fn": re_fn}, label
            )
        )

    # -- snapshot aggregation ---------------------------------------------------

    def aggregate(self, *specs: AggSpec) -> "Query":
        """Compute several snapshot aggregates at once."""
        return Query(AggregateNode(self._node, specs))

    def count(self, into: str = "Count") -> "Query":
        """Snapshot count (pair with ``window`` for windowed counts)."""
        return self.aggregate(AggSpec("count", into))

    def sum(self, column: str, into: str = "Sum") -> "Query":
        return self.aggregate(AggSpec("sum", into, column))

    def avg(self, column: str, into: str = "Avg") -> "Query":
        return self.aggregate(AggSpec("avg", into, column))

    def min(self, column: str, into: str = "Min") -> "Query":
        return self.aggregate(AggSpec("min", into, column))

    def max(self, column: str, into: str = "Max") -> "Query":
        return self.aggregate(AggSpec("max", into, column))

    def topk(self, column: str, k: int = 3, into: str = "TopK") -> "Query":
        """The k largest values of ``column`` per snapshot (descending)."""
        return self.aggregate(AggSpec("topk", into, column, k=k))

    def stddev(self, column: str, into: str = "StdDev") -> "Query":
        return self.aggregate(AggSpec("stddev", into, column))

    # -- grouping ----------------------------------------------------------------

    def group_apply(
        self,
        keys: TypingUnion[str, Sequence[str]],
        subquery: Callable[["Query"], "Query"],
        label: str = None,
    ) -> "Query":
        """Apply ``subquery`` independently to each group of ``keys``.

        ``subquery`` receives a Query representing the per-group
        sub-stream and returns the per-group result; group key columns are
        re-attached to every output payload.
        """
        if isinstance(keys, str):
            keys = (keys,)
        group_input = GroupInputNode()
        sub_root = subquery(Query(group_input))._node
        return Query(GroupApplyNode(self._node, keys, sub_root, group_input, label))

    # -- binary -------------------------------------------------------------------

    def union(self, other: "Query") -> "Query":
        """Bag union with another stream."""
        return Query(UnionNode(self._node, other._node))

    def temporal_join(
        self,
        other: "Query",
        on: TypingUnion[str, Sequence[str]],
        residual: Callable[[dict, dict], bool] = None,
        select: Callable[[dict, dict], dict] = None,
        label: str = None,
        columns: Optional[Sequence[str]] = None,
    ) -> "Query":
        """Join with ``other`` on equal columns and overlapping lifetimes.

        ``columns`` declares the output schema when ``select`` is custom.
        """
        if isinstance(on, str):
            on = (on,)
        return Query(
            TemporalJoinNode(
                self._node, other._node, on, residual, select, label, columns
            )
        )

    def anti_semi_join(
        self,
        other: "Query",
        on: TypingUnion[str, Sequence[str]],
        residual: Callable[[dict, dict], bool] = None,
        label: str = None,
    ) -> "Query":
        """Drop point events covered by a matching event of ``other``."""
        if isinstance(on, str):
            on = (on,)
        return Query(AntiSemiJoinNode(self._node, other._node, on, residual, label))

    # -- scale-out hints -----------------------------------------------------------

    def exchange(self, *columns: str) -> "Query":
        """Explicit repartitioning hint for TiMR (Section III-A.2).

        ``exchange("AdId")`` marks that the stream should be partitioned
        by AdId from this point up. ``exchange()`` (no columns) marks
        temporal/single partitioning. The single-node engine treats it as
        the identity.
        """
        from .plan import ExchangeNode

        return Query(ExchangeNode(self._node, columns))

    # -- user-defined operators ------------------------------------------------------

    def udo_hopping(
        self,
        w: int,
        h: int,
        fn: Callable[[list, int], Iterable[dict]],
        label: str = None,
    ) -> "Query":
        """Run ``fn(window_payloads, boundary)`` at every hop boundary
        whose window holds an event."""
        return Query(WindowedUDONode(self._node, w, h, fn, label))

    def udo_snapshot(
        self, fn: Callable[[list], Iterable[dict]], label: str = None
    ) -> "Query":
        """Run ``fn(active_payloads)`` at every snapshot."""
        return Query(SnapshotUDONode(self._node, fn, label))

    def udo_scan(
        self,
        state_factory: Callable[[], object],
        fn: Callable[[object, dict, int], Iterable[dict]],
        label: str = None,
    ) -> "Query":
        """Fold ``fn(state, payload, le)`` over the stream (online UDO)."""
        from .plan import ScanUDONode

        return Query(ScanUDONode(self._node, state_factory, fn, label))

    # -- plumbing -----------------------------------------------------------------------

    def to_plan(self) -> PlanNode:
        """The logical plan root for this query."""
        return self._node

    def __repr__(self):
        return f"Query({self._node!r})"
