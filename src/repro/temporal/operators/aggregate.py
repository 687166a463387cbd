"""Snapshot aggregation.

An aggregation operator (Count, Sum, Min, ...) computes and reports an
aggregate result *each time the active event set changes* — i.e. per
snapshot (Section II-A.2). Combined with AlterLifetime windowing this
yields windowed aggregates: ``sliding_window(w)`` followed by ``Count``
reports the count over the last ``w`` ticks, refreshed whenever it
changes.

The operator runs a single endpoint sweep: additions arrive in LE order,
expirations are drained from a min-heap of distinct REs, and one output
event is emitted per maximal interval of constant aggregate value (empty
snapshots emit nothing). The unit of state is the *pane* — everything
that expires at one RE: a hopping window gives every arrival inside one
hop the same lifetime, so count/sum/avg/stddev keep ``size/hop`` folded
partials per key and no payload. State is fully incremental, so the same
code path serves a live feed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from math import inf
from typing import Callable, Dict, List, Optional, Sequence

from ..event import Event
from ..time import data_error
from .base import UnaryOperator


class AggregateFunction:
    """Incremental aggregate state: payloads enter and leave the snapshot.

    The sweep moves a *pane* — everything that expires together — at a
    time: ``enter`` applies the ``k`` payloads arriving together in one
    pane and returns the pane's partial (``part`` is what its earlier
    arrivals left, ``None`` for a new pane), ``leave`` retires it. By
    default the partial is the payloads themselves, added and removed
    one by one in arrival order. A function whose partials combine
    overrides both and keeps no payload; it must leave the state bit for
    bit where ``add``/``remove`` per payload would.
    """

    __slots__ = ()

    def add(self, payload: dict) -> None:
        raise NotImplementedError

    def remove(self, payload: dict) -> None:
        raise NotImplementedError

    def value(self):
        raise NotImplementedError

    def enter(self, part, payloads, k):
        for payload in payloads:
            self.add(payload)
        if part is None:
            return list(payloads)
        part += payloads
        return part

    def leave(self, part):
        for payload in part:
            self.remove(payload)


class CountAgg(AggregateFunction):
    """Number of payloads in the snapshot; a pane's partial is its count."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def enter(self, part, payloads, k):
        self.n += k
        return k if part is None else part + k

    def leave(self, part):
        self.n -= part

    def add(self, payload):
        self.n += 1

    def remove(self, payload):
        self.n -= 1

    def value(self):
        return self.n


class SumAgg(AggregateFunction):
    """Sum of ``column`` over the snapshot (of its squares if ``squared``).

    Int terms are exact under any grouping, so a pane's combine into its
    partial ``[Σ]``. Any other term is appended to the partial and
    applied on its own, in arrival order, to a second accumulator that
    returns to exact zero when the last such term leaves: float residue
    does not outlive the values that caused it.
    """

    __slots__ = ("column", "squared", "total", "rest", "n_rest")

    def __init__(self, column: str, squared: bool = False):
        self.column = column
        self.squared = squared
        self.total = 0  # the int terms
        self.rest = self.n_rest = 0  # every other term, and how many

    def enter(self, part, payloads, k):
        column, squared = self.column, self.squared
        total = 0
        for payload in payloads:
            v = payload[column]
            exact = type(v) is int
            if squared:
                v = v * v
            if exact:
                total += v
            else:
                self.rest += v
                self.n_rest += 1
                part = part or [0]
                part.append(v)
        self.total += total
        if part is None:
            return [total]
        part[0] += total
        return part

    def leave(self, part):
        self.total -= part[0]
        if len(part) > 1:
            for v in part[1:]:
                self.rest -= v
            self.n_rest -= len(part) - 1
            if not self.n_rest:
                self.rest = 0

    def add(self, payload):
        self.enter(None, (payload,), 1)

    def remove(self, payload):
        v = payload[self.column]
        exact = type(v) is int
        if self.squared:
            v = v * v
        self.leave([v] if exact else [0, v])

    def value(self):
        return self.total + self.rest


class _Together(AggregateFunction):
    """Several states moved as one: a pane holds a partial for each."""

    __slots__ = ("states",)

    def __init__(self, states):
        self.states = states

    def enter(self, part, payloads, k):
        part = part or [None] * len(self.states)
        for s, st in enumerate(self.states):
            part[s] = st.enter(part[s], payloads, k)
        return part

    def leave(self, part):
        for st, p in zip(self.states, part):
            st.leave(p)

    def add(self, payload):
        for st in self.states:
            st.add(payload)

    def remove(self, payload):
        for st in self.states:
            st.remove(payload)


class AvgAgg(_Together):
    """Arithmetic mean of ``column`` over the snapshot (None when empty)."""

    __slots__ = ()

    def __init__(self, column: str):
        super().__init__([SumAgg(column), CountAgg()])

    def value(self):
        total, count = self.states
        return total.value() / count.n if count.n else None


class StdDevAgg(_Together):
    """Population standard deviation of ``column`` (None when empty)."""

    __slots__ = ()

    def __init__(self, column: str):
        super().__init__(
            [SumAgg(column), SumAgg(column, squared=True), CountAgg()]
        )

    def value(self):
        total, total_sq, count = self.states
        if count.n == 0:
            return None
        mean = total.value() / count.n
        return max(0.0, total_sq.value() / count.n - mean * mean) ** 0.5


class _OrderStatAgg(AggregateFunction):
    """Shared machinery for Min/Max: a sorted multiset of column values."""

    def __init__(self, column: str):
        self.column = column
        self.values: List = []

    def add(self, payload):
        insort(self.values, payload[self.column])

    def remove(self, payload):
        v = payload[self.column]
        idx = bisect_left(self.values, v)
        if idx >= len(self.values) or self.values[idx] != v:
            raise RuntimeError(f"removing value {v!r} not present in snapshot")
        del self.values[idx]


class MinAgg(_OrderStatAgg):
    """Minimum of ``column`` over the snapshot (None when empty)."""

    def value(self):
        return self.values[0] if self.values else None


class MaxAgg(_OrderStatAgg):
    """Maximum of ``column`` over the snapshot (None when empty)."""

    def value(self):
        return self.values[-1] if self.values else None


class TopKAgg(_OrderStatAgg):
    """The ``k`` largest values of ``column``, descending (a tuple)."""

    def __init__(self, column: str, k: int = 3):
        super().__init__(column)
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k

    def value(self):
        return tuple(reversed(self.values[-self.k :]))


#: Registry used by the query builder to construct aggregate state by name.
AGGREGATE_FACTORIES: Dict[str, Callable[..., AggregateFunction]] = {
    "count": CountAgg,
    "sum": SumAgg,
    "avg": AvgAgg,
    "min": MinAgg,
    "max": MaxAgg,
    "topk": TopKAgg,
    "stddev": StdDevAgg,
}


def aggregate_error(specs, states, payloads, exc: TypeError) -> Exception:
    """What to raise for ``exc``, met entering ``payloads`` into the
    aggregate ``states`` of ``specs``: a ``ValueError`` naming the kind,
    the column and the first value its aggregate cannot combine (no
    number to add, nothing to order it against), else ``exc``. A caller
    calls it once ``enter`` failed, so valid input pays nothing."""
    for spec, state in zip(specs, states):
        if spec.column is None:
            continue
        held = getattr(state, "values", [])[:1]  # an order statistic's least
        for payload in payloads:
            value = payload[spec.column]
            try:
                if spec.kind in ("min", "max", "topk"):
                    sorted((value, value, *held))
                    held = held or [value]
                else:
                    0 + value
            except TypeError:
                return data_error(ValueError(
                    f"aggregate {spec.kind} over column {spec.column!r} cannot "
                    f"combine {value!r}"
                ))
    return exc


class AggSpec:
    """Declarative description of one aggregate output column.

    Args:
        kind: one of ``count``, ``sum``, ``avg``, ``min``, ``max``,
            ``topk``, ``stddev``.
        into: output column name.
        column: input column (unused by ``count``).
        params: extra constructor arguments (e.g. ``k`` for ``topk``).
    """

    __slots__ = ("kind", "into", "column", "params")

    def __init__(
        self, kind: str, into: str, column: Optional[str] = None, **params
    ):
        if kind not in AGGREGATE_FACTORIES:
            raise ValueError(f"unknown aggregate kind {kind!r}")
        if kind != "count" and column is None:
            raise ValueError(f"aggregate {kind!r} requires an input column")
        self.kind = kind
        self.into = into
        self.column = column
        self.params = params

    def build(self) -> AggregateFunction:
        if self.kind == "count":
            return CountAgg()
        return AGGREGATE_FACTORIES[self.kind](self.column, **self.params)

    def __repr__(self):
        return f"AggSpec({self.kind}, into={self.into!r}, column={self.column!r})"


def endpoint_sweep(les, res, payloads, pending, panes, fold, start, segment, out,
                   specs, states):
    """The endpoint sweep, its one copy (:class:`SnapshotAggregate`'s, and
    per key a keyed GroupApply's): LE-ordered ``les``, ``res``, ``payloads``
    (``None`` when ``fold`` reads none) into the state passed in —
    ``pending``, the min-heap of distinct live REs; ``panes``, each RE's
    partial; ``fold``, over the ``states`` of ``specs``; ``start``, the open
    segment's start, returned — each closed segment ``segment(le, re)``
    appended to ``out``. Drain, emit and heap push happen once per run of
    equal ``(le, re)``, which folds into its RE's pane."""
    enter = fold.enter
    i, n = 0, len(les)
    while i < n:
        le, re = les[i], res[i]
        j = i + 1
        while j < n and res[j] == re and les[j] == le:
            j += 1
        if pending:
            if pending[0] <= le:
                start = drain_panes(le, pending, panes, fold, start, segment, out)
            if pending and le > start:
                out.append(segment(start, le))
        start = le
        pane = panes.get(re)
        if pane is None:
            heapq.heappush(pending, re)
        run = None if payloads is None else payloads[i:j]
        try:
            panes[re] = enter(pane, run, j - i)
        except TypeError as exc:
            raise aggregate_error(specs, states, run, exc) from None
        i = j
    return start


def drain_panes(t, pending, panes, fold, start, segment, out):
    """Retire every pane with RE <= ``t``, closing the constant-value
    segment at each RE into ``out`` before its pane leaves; the state is
    :func:`endpoint_sweep`'s, and so is the returned open segment's start."""
    while pending and pending[0] <= t:
        end = heapq.heappop(pending)
        if end > start:
            out.append(segment(start, end))
        start = end
        fold.leave(panes.pop(end))
    return start


class SnapshotAggregate(UnaryOperator):
    """Compute one or more aggregates per snapshot via an endpoint sweep."""

    fresh_payloads = True  # _value_payload builds a dict per segment

    def __init__(self, specs: Sequence[AggSpec]):
        if not specs:
            raise ValueError("SnapshotAggregate needs at least one AggSpec")
        self.specs = list(specs)
        states = self._states = [s.build() for s in self.specs]
        #: what moves a pane in and out: the state, or all of them as one
        self._fold = states[0] if len(states) == 1 else _Together(states)
        #: the output column of a lone spec (None with several)
        self._into = self.specs[0].into if len(states) == 1 else None
        self._pending: List[int] = []  # min-heap of the distinct live REs
        self._panes: Dict[int, list] = {}  # RE -> pane
        self._segment_start: Optional[int] = None  # set while a pane is live

    @property
    def reads_payloads(self) -> bool:
        """False when a sweep never looks at its payload column (a lone
        count): a caller that has columns need not build that one."""
        return self._fold.__class__ is not CountAgg

    def pane_kind(self) -> str:
        """What the sweep keeps per pane, as ``explain()`` names it."""
        kept = {"partials": [], "payload lists": []}
        for spec, st in zip(self.specs, self._states):
            merges = type(st).enter is not AggregateFunction.enter
            kept["partials" if merges else "payload lists"].append(spec.kind)
        return ", ".join(
            f"pane {what} ({', '.join(kinds)})" for what, kinds in kept.items() if kinds
        )

    def _value_payload(self) -> dict:
        if self._into is not None:
            return {self._into: self._states[0].value()}
        return {s.into: st.value() for s, st in zip(self.specs, self._states)}

    def _segment(self, le: int, re: int) -> Event:
        return Event(le, re, self._value_payload())

    def _drain(self, t: int, out: list) -> list:
        pending = self._pending
        if not pending or pending[0] > t:
            return out
        self._segment_start = drain_panes(
            t, pending, self._panes, self._fold, self._segment_start, self._segment, out
        )
        return out

    def sweep(self, les, res, payloads) -> list:
        """:func:`endpoint_sweep` over parallel ``(les, res, payloads)``
        sequences, LE-ordered: the loop behind ``on_batch``, with
        ``payloads=None`` unless :attr:`reads_payloads`."""
        out: list = []
        self._segment_start = endpoint_sweep(
            les, res, payloads, self._pending, self._panes, self._fold,
            self._segment_start, self._segment, out, self.specs, self._states,
        )
        return out

    def on_batch(self, events) -> list:
        return self.sweep(
            [e.le for e in events],
            [e.re for e in events],
            [e.payload for e in events] if self.reads_payloads else None,
        )

    def on_flush(self) -> list:
        # every pane, one whose RE a lifetime stretched past MAX_TIME too
        return self._drain(inf, [])

    def on_watermark(self, w: int) -> list:
        # all changepoints < w are final: retiring expirations with RE <= w
        # is exactly what the arrival of an event at LE = w would trigger
        return self._drain(w, [])

    def watermark_out(self, w: int) -> int:
        # the open segment (if any) will be emitted later with its
        # original start, so the output watermark lags to that start
        return min(w, self._segment_start) if self._pending else w

    def next_wake(self):
        # nothing moves until the earliest pending expiration
        return self._pending[0] if self._pending else None
