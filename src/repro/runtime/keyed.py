"""One keyed sweep for a GroupApply whose per-key plan ends in an aggregate.

Most GroupApply sub-plans in this system are a few stateless stages — a
time window or hop, a shift, a where or a project — feeding one snapshot
aggregate: every windowed count and sum of the BT pipeline and of the
scale shapes. Such a sub-plan needs no per-key operator graph.
:class:`KeyedAggregate` runs it for every key at once: a fed batch has
its keys read and its lifetimes computed through the stateless stages,
then is split by key, and each key's rows go through the endpoint sweep
of :class:`~repro.temporal.operators.SnapshotAggregate` itself
(``operators/aggregate.py``'s ``endpoint_sweep`` and ``drain_panes``,
the one copy) over that key's :class:`KeyState` — the aggregate's pane
partials, its heap of distinct REs and its open segment, nothing else
per key.

The GroupApply's scheduler (``dataflow.GroupScheduler``) treats a
``KeyState`` exactly like a per-key chain: it has a watermark, a wake
time and an idle delta, and :meth:`KeyedAggregate.advance` is that
chain's ``advance``. Per key, the sweep is the one the chain's
aggregate runs, on the rows the chain's stages would hand it, so it
makes the same ``enter`` / ``leave`` calls and emits the same segments
in the same order; and — taking the key's own input watermark, as a
chain does — it leaves the same watermark and wake time, so the output
is identical event for event and call for call
(``tests/runtime/test_wake_scheduling.py`` runs both).

A batch arrives as events, or straight from a source of rows as a
:class:`~repro.temporal.event.Batch` of them. When the stages are
windows, hops and shifts, or none, and no key or aggregate column is
one the rows' decode drops (``Batch.drops``: ``Time``, ``_re``, and a
tagged input's ``_src``), the sweep reads the batch's columns: the
checked LEs and REs, the keys and aggregate inputs off the rows, each
row its own read-only payload, and no ``Event`` or payload dict is
built. Any other sweep iterates the batch, which decodes it.

The per-row loop emits a segment as one row ``(le, re, *values)``
whose values follow :attr:`KeyedAggregate.layout`, the payload's column
order; the scheduler makes its release one
:class:`~repro.temporal.event.Batch` of them (``runtime/dataflow.py``).

A ``count`` or plain ``sum`` that reads a chunk's columns stages it as
int64 endpoints instead (the *array form*, docs/EXECUTION.md), which each
wave's :meth:`KeyedAggregate.sweep` sorts once. Every node in the array
form, a flow's root or not, keeps the segments as the sweep's int64
rows, merges and releases them as they are, and
:meth:`KeyedAggregate.batch` turns a release into its ``Batch``; only
the conversion to the per-row loop makes them rows. Its keys'
scheduling state is int64 columns too, one row per key id, and the
scheduler's two heaps arrays of entries: :meth:`KeyedAggregate.wave`
is a wave's walk over its due keys — ``advance`` and the heaps — as
array passes, with every effect the walk shows per call, and
:meth:`KeyedAggregate.advance` runs at the flush alone.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from functools import partial
from heapq import heapify
from itertools import chain, islice
from math import inf
from operator import itemgetter
from typing import List, Optional

import numpy as np

from ..temporal.event import _LE, _PAYLOAD, _RE, Batch
from ..temporal.operators.aggregate import _Together, drain_panes, endpoint_sweep
from ..temporal.operators.base import WAKE_ALWAYS, WAKE_AT_FLUSH
from ..temporal.operators.stateless import (
    WINDOW_SPECS,
    event_kernel,
    spec_lifetimes,
)
from ..temporal.time import _INT_ONLY, MAX_TIME, MIN_TIME, data_error

#: the array form holds times within ±_TIME_LIMIT after the stages, and
#: sums while Σ max|v| × rows stays under _SUM_LIMIT: nothing overflows
_TIME_LIMIT, _SUM_LIMIT = 3 << 61, 1 << 61
_NEVER, _NOT_DUE = np.iinfo(np.int64).max, np.iinfo(np.int64).min  # horizons
#: the array form's scheduling columns, one int64 row per key id: what
#: ``advance`` reads and writes, the pending head (``_NEVER``: no pane)
_W_IN, _FLOOR, _MARK, _START, _PEND, _WAKE, _IDLE, _ORD, _STAMP, _ACTIVE, _DUE = range(11)
_FRESH = (MIN_TIME, MIN_TIME, MIN_TIME, MIN_TIME, _NEVER, WAKE_ALWAYS, 0, 0, 0, 0, 0)
_NONE = np.empty(0, np.int64)
#: ``EngineStats.resolutions`` name: the rows a keyed count or int sum
#: fed through its per-row loop (``KeyedAggregate.row_loop``)
ROW_LOOP = "keyed.row_loop"
#: why a keyed count or int sum fed events, not a source's rows, loops
EVENTS_READ = "the node read events, not a source's rows"
#: why a keyed count or int sum whose group watermark is not an int loops
WATERMARK_NOT_INT = "a watermark is not an int"


def lex_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The order that sorts int64 rows by ``major``, then ``minor``, equal
    pairs in any order: one combined key where it fits int64."""
    m0, t0 = int(major.min()), int(minor.min())
    span = int(minor.max()) - t0 + 1
    if (int(major.max()) - m0 + 1) * span < 1 << 62:
        return np.argsort((major - m0) * span + (minor - t0))
    return np.lexsort((minor, major))


class KeyState:
    """One key's aggregate: pane partials, the heap of their distinct
    REs and the open segment's start, which
    :func:`~repro.temporal.operators.aggregate.endpoint_sweep` updates."""

    __slots__ = (
        "key_values",
        "fold",
        "states",
        "panes",
        "pending",
        "start",
        "out",
        "floor",
        "w_in",
        "watermark",
        "idle_delta",
        "wake",
        "ordinal",
        "stamp",
    )

    def __init__(self, key_values: tuple, specs):
        #: the key's column values in key order, which is the layout's
        #: after a lone aggregate's output
        self.key_values = key_values
        states = self.states = [s.build() for s in specs]
        self.fold = states[0] if len(states) == 1 else _Together(states)
        self.panes: dict = {}  # RE -> partial
        self.pending: List[int] = []  # min-heap of the distinct live REs
        self.start = MIN_TIME  # the open segment's start while a pane lives
        self.out: List[tuple] = []  # rows emitted, not yet taken by a wave
        self.floor = MIN_TIME  # the aggregate stage's watermark floor
        #: the last LE fed to this key that led the group's watermark; the
        #: key's input watermark is the larger of the two (GroupApply
        #: input is LE-ordered)
        self.w_in = MIN_TIME
        self.watermark = MIN_TIME
        self.idle_delta: Optional[int] = None
        self.wake = WAKE_ALWAYS
        self.ordinal = self.stamp = 0  # owned by the GroupApply's scheduler


class _Ids(dict):
    """Key -> id; a key looked up for the first time takes the next id."""

    def __missing__(self, key):
        i = self[key] = len(self)
        return i


def key_error(keys, events, exc: Exception) -> Exception:
    """What to raise for ``exc``, met keying GroupApply input ``events``:
    a ``KeyError`` naming a missing key column, or a ``ValueError`` naming
    the key column and its unhashable value."""
    for e in events:
        for k in keys:
            if k not in e.payload:
                return data_error(KeyError(
                    f"GroupApply key column {k!r} missing from payload {e.payload!r}"
                ))
            try:
                hash(e.payload[k])
            except TypeError:
                return data_error(ValueError(
                    f"GroupApply key column {k!r} holds {e.payload[k]!r}, "
                    "which is unhashable and cannot key a group"
                ))
    return exc


class KeyedAggregate:
    """The per-key plan ``(where | project | lifetime rewrite)* →
    aggregate`` of one GroupApply node, run for all keys in one sweep.

    ``stages`` are the sub-plan's nodes after the group input,
    ``futures`` their future extents and ``shared`` their
    operator objects (``None`` for the aggregate, which is per key).
    """

    def __init__(self, keys, stages, futures, shared):
        self.keys = tuple(keys)
        self.specs = stages[-1].specs
        probe = stages[-1].make_operator()
        #: False for a lone count: the sweep never reads a payload
        self.reads_payloads = probe.reads_payloads
        # a segment's payload as the chains build it: the aggregate
        # outputs, then the key columns (one named like an output takes
        # its place); each column's value is ``(0, i)``: aggregate
        # ``i``'s, or ``(1, j)``: key column ``j``'s
        slots = {s.into: (0, i) for i, s in enumerate(self.specs)}
        slots.update({k: (1, j) for j, k in enumerate(self.keys)})
        #: the columns of every row ``(le, re, *values)`` this node emits
        self.layout = tuple(slots)
        self._slots = tuple(slots.values())
        prefix = shared[:-1]
        self._prefix_futures = futures[:-1]
        #: a stateless stage moves LEs back (a backward shift)
        self._lags = any(self._prefix_futures)
        self._agg_future = futures[-1]
        #: lifetime rewrites with a spec (windows, hops, shifts) compute
        #: lifetimes column by column; a where or a project runs each
        #: event through every stage
        self._specs = specs = [getattr(op, "spec", None) for op in prefix]
        self._kernel = event_kernel(prefix) if None in specs else None
        #: the sweep needs the input's REs: no time window sets them first
        self._reads_re = not specs or None in specs or specs[0][0] not in WINDOW_SPECS
        self._key_of = itemgetter(*self.keys)
        #: the key and aggregate columns: a source's rows are swept as
        #: they are when no kernel runs over an event and none of these
        #: is a column the rows' decode drops (``Batch.drops``)
        self._row_columns = frozenset((*self.keys, *(s.column for s in self.specs)))
        self._wave = None  # the input watermark the one below is for
        self._w_in = MIN_TIME  # what the aggregate stage sees
        # -- the array form: counts and plain sums, over spec'd stages
        self._arrayable = self._kernel is None and all(
            s.kind == "count" or (s.kind == "sum" and not s.params) for s in self.specs
        )
        self._sum_columns = [s.column for s in self.specs if s.kind == "sum"]
        sums = itertools.count(1)  # each spec's running total: 0 the count
        self._totals = [next(sums) if s.kind == "sum" else 0 for s in self.specs]
        self._slack = sum(abs(x) for spec in specs for x in spec[1:]) if self._arrayable else 0
        self._loop_reason: Optional[str] = None  # why the loop runs, once it does
        self._bound = self.array_swept_rows = 0
        self.row_loop: Counter = Counter()  # rows the loop took, by why
        self._kids = _Ids()  # key -> its id, which indexes the three below
        self._states: List[KeyState] = []
        self._key_cols: List[list] = [[] for _ in self.keys]
        #: the array form's scheduling columns (``_FRESH``), and the
        #: scheduler's two heaps as entries ``(watermark | wake, stamp, key id)``
        self._sched = np.empty((0, len(_FRESH)), np.int64)
        self._held = self._wakes = np.empty((0, 3), np.int64)
        #: what the scheduler reads of them (a heap's least entry, ``None``: empty)
        self.active_n = self.due_n = 0
        self.held_top = self.wake_top = None
        #: endpoint rows (key id, time, count, *sums): what the last wave
        #: carried, then the chunks since, are the first ``_n``
        self._ends = self._sorted = np.empty((0, 3 + len(self._sum_columns)), np.int64)
        self._n = 0

    # -- feeding ------------------------------------------------------------

    def feed(self, scheduler, fresh, watermark) -> None:
        """Sweep LE-ordered ``fresh`` into the key states of ``scheduler``
        (the GroupApply's ``GroupScheduler``, whose input watermark is
        ``watermark``), creating and activating keys in first-appearance
        order exactly as per-key chains would be."""
        les, res, payloads = self._columns(fresh)
        kids = self._kids
        known = len(kids)
        try:
            batch_keys = list(map(self._key_of, payloads))
            kid = np.fromiter(map(kids.__getitem__, batch_keys), np.int64, len(batch_keys))
        except (KeyError, TypeError) as exc:
            while len(kids) > known:  # a batch that fails creates no key
                kids.popitem()
            raise key_error(self.keys, fresh, exc) from None
        groups, states, one = scheduler._groups, self._states, len(self.keys) == 1
        for key in islice(kids, known, None):  # a state, and a column row, per new key
            values = (key,) if one else key
            states.append(KeyState(values, self.specs))
            groups[key] = states[-1]
            for column, value in zip(self._key_cols, values):
                column.append(value)
        if len(states) > len(self._sched):
            self._sched = np.concatenate((self._sched, np.tile(_FRESH, (len(states), 1))))
        reads_rows = type(fresh) is Batch and payloads is fresh.rows
        if scheduler._columns:
            reason = self._stage(les, res, payloads, kid) if reads_rows else EVENTS_READ
            if reason is None:
                return self._activate(scheduler, kid, les, watermark)
            self._to_loop(scheduler, reason)
        if self._arrayable:
            self.row_loop[self._loop_reason if reads_rows else EVENTS_READ] += len(les)
        active, due = scheduler._active, scheduler._due
        # a key fed again before the next wave keeps its place and state
        for key in dict.fromkeys(batch_keys):
            if key in due:
                continue
            st = groups[key]
            if key not in active:
                st.ordinal = next(scheduler._ordinals)
                active[key] = st
            due[key] = st
            st.idle_delta = None
        if les[-1] > watermark:
            # the batch runs ahead of the group (a hop before the
            # GroupApply): each key's last LE may lead the next wave's
            # watermark, which otherwise covers it
            for key, le in dict(zip(batch_keys, les)).items():
                st = groups[key]
                if le > st.w_in:
                    st.w_in = le
        les, res, payloads = self._lifetimes(les, res, payloads)
        # each key's rows, keys in first-appearance order, through the sweep
        split: dict = {}
        for key, le, re, payload in zip(batch_keys, les, res, payloads):
            if le is not None:  # else a where or an empty lifetime dropped it
                split.setdefault(key, []).append((le, re, payload))
        reads, specs = self.reads_payloads, self.specs
        for key, rows in split.items():
            st, (k_les, k_res, k_payloads) = groups[key], zip(*rows)
            st.start = endpoint_sweep(
                k_les, k_res, k_payloads if reads else None, st.pending, st.panes, st.fold,
                st.start, partial(self._row, st), st.out, specs, st.states,
            )

    def _columns(self, fresh):
        """``(les, res, payloads)`` of ``fresh``, ``res`` ``None`` where a
        time window computes them: read off a source's rows (a
        :class:`Batch` of them, each row its own read-only payload) where
        this sweep reads rows, else off the events."""
        if (
            type(fresh) is Batch
            and fresh.rows is not None
            and self._kernel is None
            and fresh.drops.isdisjoint(self._row_columns)
        ):
            return fresh.les, fresh.res if self._reads_re else None, fresh.rows
        les = list(map(_LE, fresh))
        res = list(map(_RE, fresh)) if self._reads_re else None
        return les, res, list(map(_PAYLOAD, fresh))

    def _lifetimes(self, les, res, payloads):
        """``(les, res, payloads)`` after the stateless stages; ``les[i]``
        is ``None`` where a stage dropped input ``i``."""
        if self._kernel is None:
            return (*spec_lifetimes(self._specs, les, res), payloads)
        for i, out in enumerate(map(self._kernel, les, res, payloads)):
            if out is None:
                les[i] = None
            else:
                les[i], res[i], payloads[i] = out
        return les, res, payloads

    # -- the array form ------------------------------------------------------

    def _activate(self, scheduler, kid: np.ndarray, les, watermark) -> None:
        """The loop's activation of the keys ``kid`` of a staged chunk, in
        columns: a key not active takes the next ordinal, in first-appearance
        order, and every fed key is due."""
        s = self._sched
        idle = kid[s[kid, _ACTIVE] == 0]
        if len(idle):
            ids, first = np.unique(idle, return_index=True)
            ids = ids[np.argsort(first)]
            base = next(scheduler._ordinals)
            scheduler._ordinals = itertools.count(base + len(ids))
            s[ids, _ORD] = np.arange(base, base + len(ids))
            s[ids, _ACTIVE] = 1
            self.active_n += len(ids)
        s[kid, _DUE] = 1
        if les[-1] > watermark:  # as the loop: each key's last LE, ahead of the group
            np.maximum.at(s[:, _W_IN], kid, np.array(les, np.int64))

    def _stage(self, les, res, rows, key: np.ndarray) -> Optional[str]:
        """Stage a chunk of rows, ``key`` their key ids, as endpoints, or
        say why it cannot be."""
        if not set(map(type, chain(les, res or ()))) <= _INT_ONLY:
            return "a time is not an int"
        sums, bound = [], self._bound
        for column in self._sum_columns:
            values = list(map(itemgetter(column), rows))  # a KeyError as the loop's
            if not set(map(type, values)) <= _INT_ONLY:
                return "a summed value is not an int"
            bound += max(max(values), -min(values)) * len(values)
            sums.append(values)
        lo, hi = les[0] - self._slack, (les[-1] if res is None else max(res)) + self._slack
        if bound >= _SUM_LIMIT or not -_TIME_LIMIT < lo <= hi < _TIME_LIMIT:
            return "an int past the int64 bounds"
        self._bound = bound
        self.array_swept_rows += len(les)
        le, sums = np.array(les, np.int64), np.array(sums, np.int64).reshape(-1, len(les))
        re = None if res is None else np.array(res, np.int64)
        keep = None
        for spec in self._specs:  # spec_lifetimes, over arrays
            if spec[0] == "shift":
                le, re = le + spec[1], re + spec[2]
                if spec[2] < spec[1]:
                    keep = re > le if keep is None else keep & (re > le)
            else:
                if spec[0] == "hop":
                    le = -(-le // spec[2]) * spec[2]
                re = le + spec[1]
        if keep is not None:
            key, le, re, sums = key[keep], le[keep], re[keep], np.compress(keep, sums, axis=1)
        # +1 and +v at each LE, -1 and -v at each RE, after what is staged
        n, start = len(key), self._n
        self._n += 2 * n
        if self._n > len(self._ends):
            grown = np.empty((2 * self._n, self._ends.shape[1]), np.int64)
            grown[:start] = self._ends[:start]
            self._ends, self._sorted = grown, np.empty_like(grown)
        ends = self._ends[start : self._n]
        ends[:n, 0] = ends[n:, 0] = key
        ends[:n, 1], ends[n:, 1], ends[:n, 2], ends[n:, 2] = le, re, 1, -1
        ends[:n, 3:], ends[n:, 3:] = sums.T, -sums.T
        return None

    def sweep(self, due: np.ndarray, w=None) -> Optional[np.ndarray]:
        """Before the keys ``due`` (ids) advance at input watermark ``w``,
        sweep every endpoint, each key up to its horizon: the later of its
        last LE and (if due) its aggregate stage's watermark. The ``_START``
        and ``_PEND`` columns are what the loop would leave in ``start`` and
        ``pending``, the rest is carried (``_ends[:_n]``). Returns the
        segments as int64 rows ``(le, re, key id, *live totals)``, by key
        id, then LE (``None``: none)."""
        n = self._n
        if not n:
            return None
        upto = np.full(len(self._states), _NOT_DUE, np.int64)
        if len(due):
            upto[due] = _NEVER if w >= MAX_TIME else self._stage_ws(
                np.maximum(self._sched[due, _W_IN], w))
        order = lex_order(self._ends[:n, 0], self._ends[:n, 1])
        ends = np.take(self._ends[:n], order, axis=0, out=self._sorted[:n], mode="clip")
        key, t = ends[:, 0], ends[:, 1]
        head = np.concatenate(([True], key[1:] != key[:-1]))  # a key's first
        heads = np.flatnonzero(head)
        first = key[heads]  # a key's last entry that adds: its last LE, or start
        upto[first] = np.maximum(upto[first], np.maximum.reduceat(
            np.where(ends[:, 2] > 0, t, MIN_TIME), heads
        ))
        # runs of equal (key, time), deltas summed; running totals per key
        at = np.flatnonzero(head | np.concatenate(([True], t[1:] != t[:-1])))
        key, t, head = key[at], t[at], head[at]
        deltas = np.add.reduceat(ends[:, 2:], at, axis=0)
        total = np.cumsum(deltas, axis=0)
        base = np.take(total - deltas, np.flatnonzero(head), axis=0)
        live = total - np.take(base, np.cumsum(head) - 1, axis=0)
        del ends, total, base
        done = t <= upto[key]
        follows = np.append(~head[1:] & done[1:], False)  # the key's next run is done
        seg = np.flatnonzero(follows & (live[:, 0] > 0))
        last = np.flatnonzero(done & ~follows)  # each key's last done run
        open_ = live[last, 0] > 0
        # carried: each open segment's start with the live totals, and what is not done
        marker = np.zeros(len(t), bool)
        marker[last[open_]] = True
        kept = np.flatnonzero(marker | ~done)
        self._n = len(kept)
        carried = self._ends[: self._n]
        carried[:, 0], carried[:, 1] = key[kept], t[kept]
        carried[:, 2:] = np.where(
            marker[kept, None], np.take(live, kept, axis=0), np.take(deltas, kept, axis=0)
        )
        after = np.minimum(last + 1, len(t) - 1)  # each key's next boundary
        self._sched[key[last], _START] = t[last]
        self._sched[key[last], _PEND] = np.where(open_, t[after], _NEVER)
        if not len(seg):
            return None
        return np.column_stack((t[seg], t[seg + 1], key[seg], live[seg]))

    def rows(self, segments: np.ndarray) -> List[tuple]:
        """Segments as rows ``(le, re, *values)`` in :attr:`layout`."""
        columns = segments.T
        return list(zip(columns[0].tolist(), columns[1].tolist(), *self._values(columns)))

    def batch(self, segments: np.ndarray) -> Batch:
        """Segments as one :class:`Batch` in :attr:`layout`, no row built."""
        columns = np.ascontiguousarray(segments.T)
        les, res = array("q", columns[0].tobytes()), array("q", columns[1].tobytes())
        return Batch.of_columns(self.layout, les, res, self._values(columns))

    def _values(self, columns: np.ndarray) -> List[list]:
        """The layout's value lists of transposed segments ``columns``."""
        kids = columns[2].tolist()
        return [columns[3 + self._totals[i]].tolist() if s == 0
                else list(map(self._key_cols[i].__getitem__, kids)) for s, i in self._slots]

    def _to_loop(self, scheduler, reason: str) -> None:
        """Leave the array form for good (``reason``): sweep up to each
        key's last LE, deal the segments to the keys' ``out`` as rows, then
        make the carried entries panes, heap and fold totals (ints:
        exact); write the scheduling columns back into each key's state
        and ``scheduler``'s dicts and heaps, from the same entries; turn
        its backlog into rows, once, ahead of what the loop emits."""
        self._loop_reason = reason
        scheduler._columns = False
        scheduler._pending = self.rows(scheduler._pending) if len(scheduler._pending) else []
        segments = self.sweep(_NONE)
        if segments is not None:
            rows, seg_keys = self.rows(segments), segments[:, 2]
            cuts = (np.flatnonzero(seg_keys[1:] != seg_keys[:-1]) + 1).tolist()
            for k, a, b in zip(seg_keys[[0, *cuts]].tolist(), [0, *cuts], [*cuts, len(rows)]):
                self._states[k].out = rows[a:b]
        for k, t, *totals in self._ends[: self._n].tolist():
            st = self._states[k]
            if totals[0] > 0:  # the open segment's start, with the live totals
                st.start, st.pending = t, []
                for fold, i in zip(st.states, self._totals):
                    setattr(fold, "total" if i else "n", totals[i])
                continue
            parts = [[-totals[i]] if i else -totals[0] for i in self._totals]
            st.panes[t] = parts[0] if len(parts) == 1 else parts
            st.pending.append(t)  # ascending: a heap
        self._n = 0
        keys, states = list(self._kids), self._states
        sched = self._sched[: len(states)]
        for st, (w_in, floor, mark, _, _, wake, idle, ordinal, stamp, active, _) in zip(
            states, sched.tolist()
        ):  # a key that never advanced keeps what it was built with
            st.w_in, st.floor, st.watermark = w_in, floor, mark
            st.ordinal, st.stamp = ordinal, stamp
            if stamp:
                st.idle_delta, st.wake = (None, wake) if active else (idle, None)
        for column, into in ((_ACTIVE, scheduler._active), (_DUE, scheduler._due)):
            ids = np.flatnonzero(sched[:, column])
            into.update((keys[i], states[i]) for i in ids[np.argsort(sched[ids, _ORD])].tolist())
        scheduler._held[:] = [(t, stamp, states[k]) for t, stamp, k in self._held.tolist()]
        scheduler._wake_heap[:] = [(t, stamp, keys[k], states[k])
                                   for t, stamp, k in self._wakes.tolist()]
        heapify(scheduler._held)
        heapify(scheduler._wake_heap)

    def wave(self, scheduler, w: int):
        """``GroupScheduler._wave``'s walk over the due keys as array passes:
        :meth:`advance` for all of them at once, and the scheduler's two
        heaps as entry arrays, with every effect they show — a stale wake
        top, the rebuild. Returns the segments and their ranks for
        ``_release``."""
        s, agg_future = self._sched, self._agg_future
        wakes = self._wakes
        hit = wakes[:, 0] <= w
        if hit.any():  # popped up to ``w``: the live entries wake their keys
            woken = wakes[hit]
            s[woken[woken[:, 1] == s[woken[:, 2], _STAMP], 2], _DUE] = 1
            self._wakes = wakes[~hit]
        due = np.flatnonzero(s[:, _DUE])
        segments = self.sweep(due, w)
        due = due[np.argsort(s[due, _ORD])]  # activation order
        rows = s[due]
        w_in = np.maximum(rows[:, _W_IN], w)
        stage_w, start, wake = self._stage_ws(w_in), rows[:, _START], rows[:, _PEND]
        live = wake != _NEVER  # a pane lives: the key stays active
        ww = np.where(live, np.minimum(stage_w, start), stage_w) - agg_future
        ww = rows[:, _FLOOR] = rows[:, _MARK] = np.maximum(ww, rows[:, _FLOOR])
        # not frozen (see ``advance``): the key stays awake
        awake = live & (start - agg_future > ww) & (wake - 1 > w_in)
        if self._lags:
            at = np.flatnonzero(awake)
            awake[at] = np.minimum(self._stage_ws(wake[at] - 1), start[at]) - agg_future > ww[at]
        wake = np.where(awake, WAKE_ALWAYS, wake)
        first = scheduler.chain_advances + 1
        scheduler.chain_advances += len(due)
        stamp = rows[:, _STAMP] = np.arange(first, first + len(due))
        if not live.all():  # idle keys leave the active set
            delta = rows[~live, _IDLE] = w - ww[~live]
            rows[~live, _ACTIVE] = 0
            self.active_n -= len(delta)
            scheduler._idle_delta = max(scheduler._idle_delta, int(delta.max()))
        rows[live, _WAKE] = wake[live]
        rows[:, _DUE] = live & (wake <= w)
        s[due] = rows
        asleep = live & (wake > w) & (wake < WAKE_AT_FLUSH)
        self._held = held = np.concatenate((self._held, np.column_stack((ww, stamp, due))[live]))
        self._wakes = np.concatenate((self._wakes, np.column_stack((wake, stamp, due))[asleep]))
        if len(held) + len(self._wakes) > 4 * self.active_n + 64:
            ids = np.flatnonzero(s[:, _ACTIVE])
            self._held = held = np.column_stack((s[ids, _MARK], s[ids, _STAMP], ids))
            ids = ids[s[ids, _WAKE] < WAKE_AT_FLUSH]
            self._wakes = np.column_stack((s[ids, _WAKE], s[ids, _STAMP], ids))
        # in heap order, the held heap pops its stale top until a live entry leads
        held = held[np.lexsort((held[:, 1], held[:, 0]))]
        current = held[:, 1] == s[held[:, 2], _STAMP]
        self._held = held = held[np.argmax(current) if current.any() else len(held):]
        self.held_top = int(held[0, 0]) if len(held) else None
        self.wake_top = int(self._wakes[:, 0].min()) if len(self._wakes) else None
        self.due_n = int(np.count_nonzero(rows[:, _DUE]))
        if segments is None:
            return None, None
        ranks = np.zeros(len(s), np.int64)  # ties in activation order
        ranks[due] = np.arange(len(due))
        return segments, ranks[segments[:, 2]]

    # -- the aggregate ------------------------------------------------------

    def _row(self, st: KeyState, le: int, re: int) -> tuple:
        """A segment's row in the layout."""
        sources = ([x.value() for x in st.states], st.key_values)
        return (le, re, *[sources[s][i] for s, i in self._slots])

    def _drain(self, st: KeyState, t) -> None:
        """Retire every pane of ``st`` with RE <= ``t``, its segments to ``out``."""
        st.start = drain_panes(t, st.pending, st.panes, st.fold, st.start,
                               partial(self._row, st), st.out)

    # -- the chain protocol -------------------------------------------------

    def advance(self, st: KeyState, watermark: int) -> List[tuple]:
        """What a per-key chain's ``advance(watermark)`` does: retire what
        the watermark closes, and set the key's watermark, wake time and
        idle delta; returns its new output rows (``(le, re, *values)`` in
        :attr:`layout`)."""
        if watermark >= MAX_TIME:
            st.idle_delta = None
            self._drain(st, inf)  # every pane, past MAX_TIME too
            st.watermark = MAX_TIME
            return self._take(st)
        if st.idle_delta is not None:
            st.watermark = watermark - st.idle_delta
            return ()
        # the group's watermark is the largest it has delivered so far
        w_in = st.w_in if st.w_in > watermark else watermark
        if w_in != self._wave:
            self._wave, self._w_in = w_in, self._stage_w(w_in)
        w = self._w_in
        pending = st.pending
        if pending and pending[0] <= w:
            self._drain(st, w)
        ww = (min(w, st.start) if pending else w) - self._agg_future
        if ww < st.floor:
            ww = st.floor
        else:
            st.floor = ww
        st.watermark = ww
        if not pending:
            st.idle_delta = watermark - ww
            st.wake = None
            return self._take(st)
        wake = pending[0]
        if st.start - self._agg_future > ww and wake - 1 > w_in:
            # were the input's watermark just short of the wake time, the
            # key's would move (no hold binds yet): it is not frozen, and
            # the key stays awake. The stage input there is at least the
            # open segment's start unless a stage lags
            if not self._lags or (
                min(self._stage_w(wake - 1), st.start) - self._agg_future > ww
            ):
                wake = WAKE_ALWAYS
        st.wake = wake
        return self._take(st)

    def _stage_w(self, watermark: int) -> int:
        """The aggregate stage's input watermark at key input
        ``watermark``: each stateless stage's floor is what a lower
        watermark left, so only the clamp at the beginning of time can
        bind."""
        for future in self._prefix_futures:
            watermark = max(watermark - future, MIN_TIME)
        return watermark

    def _stage_ws(self, watermark: np.ndarray) -> np.ndarray:
        """:meth:`_stage_w` of each of ``watermark``."""
        for future in self._prefix_futures:
            watermark = np.maximum(watermark - future, MIN_TIME)
        return watermark

    @staticmethod
    def _take(st: KeyState) -> List[tuple]:
        out = st.out
        if out:
            st.out = []
        return out
