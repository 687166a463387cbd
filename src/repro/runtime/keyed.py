"""One keyed sweep for a GroupApply whose per-key plan ends in an aggregate.

Most GroupApply sub-plans in this system are a few stateless stages — a
time window or hop, a shift, a where or a project — feeding one snapshot
aggregate: every windowed count and sum of the BT pipeline and of the
scale shapes. Such a sub-plan needs no per-key operator graph.
:class:`KeyedAggregate` runs it for every key at once: a fed batch goes
through one loop that extracts each event's key, computes its lifetime
through the stateless stages and folds it into that key's
:class:`KeyState` — the aggregate's pane partials, its heap of distinct
REs and its open segment, nothing else per key.

The GroupApply's scheduler (``dataflow.GroupScheduler``) treats a
``KeyState`` exactly like a per-key chain: it has a watermark, a wake
time and an idle delta, and :meth:`KeyedAggregate.advance` is that
chain's ``advance``. Per key, the sweep performs the same ``enter`` /
``leave`` calls and emits the same segments in the same order as
:class:`~repro.temporal.operators.SnapshotAggregate` behind the chain's
stages would, and — taking the key's own input watermark, as a chain
does — leaves the same watermark and wake time, so the output is
identical event for event and call for call
(``tests/runtime/test_wake_scheduling.py`` runs both).

A batch arrives as events, or straight from a source of rows as a
:class:`~repro.temporal.event.Batch` of them. When the stages are
windows, hops and shifts, or none, and no key or aggregate column is
one the rows' decode drops (``Batch.drops``: ``Time``, ``_re``, and a
tagged input's ``_src``), the sweep reads the batch's columns: the
checked LEs and REs, the keys and aggregate inputs off the rows, each
row its own read-only payload, and no ``Event`` or payload dict is
built. Any other sweep iterates the batch, which decodes it.

A segment is emitted as one row ``(le, re, *values)`` whose values
follow :attr:`KeyedAggregate.layout`, the payload's column order; the
scheduler builds an ``Event`` from a row only where something in the
flow reads it as one, and a flow whose root is the node releases them
as one :class:`~repro.temporal.event.Batch` (``runtime/dataflow.py``).

A ``count`` or plain ``sum`` that reads a chunk's columns stages it as
int64 endpoints instead (the *array form*, docs/EXECUTION.md), which each
wave's :meth:`KeyedAggregate.sweep` sorts once.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from itertools import chain, repeat
from math import inf
from operator import attrgetter, itemgetter
from typing import List, Optional

import numpy as np

from ..temporal.event import _LE, _PAYLOAD, _RE, Batch
from ..temporal.operators.aggregate import _Together, aggregate_error
from ..temporal.operators.base import WAKE_ALWAYS
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
_W_IN = attrgetter("w_in")
#: ``EngineStats.resolutions`` name: the rows a keyed count or int sum
#: fed through its per-row loop (``KeyedAggregate.row_loop``)
ROW_LOOP = "keyed.row_loop"
#: why a keyed count or int sum fed events, not a source's rows, loops
EVENTS_READ = "the node read events, not a source's rows"


class KeyState:
    """One key's aggregate: pane partials, the heap of their distinct
    REs, the open segment, and the run of equal ``(le, re)`` arrivals
    not yet folded into its pane (``run_k`` of them)."""

    __slots__ = (
        "key_values",
        "fold",
        "states",
        "panes",
        "pending",
        "start",
        "run_le",
        "run_re",
        "run_k",
        "run_payloads",
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
        self.run_le = self.run_re = None
        self.run_k = 0
        self.run_payloads = None
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
        self._kids: dict = {}  # key -> its id, which indexes the two below
        self._states: List[KeyState] = []
        self._key_cols: List[list] = [[] for _ in self.keys]
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
        groups, active, due = scheduler._groups, scheduler._active, scheduler._due
        keys = self.keys
        les, res, payloads = self._columns(fresh)
        try:
            batch_keys = list(map(self._key_of, payloads))
            fed = dict.fromkeys(batch_keys)
        except (KeyError, TypeError) as exc:
            raise key_error(keys, fresh, exc) from None
        # a key fed again before the next wave keeps its place and state
        for key in fed:
            if key in due:
                continue
            st = groups.get(key)
            if st is None:
                values = (key,) if len(keys) == 1 else key
                st = groups[key] = KeyState(values, self.specs)
                self._kids[key] = len(self._states)
                self._states.append(st)
                for column, value in zip(self._key_cols, values):
                    column.append(value)
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
        if self._arrayable:
            if type(fresh) is Batch and payloads is fresh.rows:  # read off rows
                if self._loop_reason is None:
                    self._loop_reason = self._stage(les, res, payloads, batch_keys)
                    if self._loop_reason is None:
                        return
                self.row_loop[self._loop_reason] += len(les)
            else:
                self._loop_reason = self._loop_reason or EVENTS_READ
                self.row_loop[EVENTS_READ] += len(les)
        if self._n:
            self._to_loop()
        les, res, payloads = self._lifetimes(les, res, payloads)
        reads = self.reads_payloads
        if not reads:
            payloads = repeat(None)
        drain = self._drain
        row = self._row
        push = heapq.heappush
        for key, le, re, payload in zip(batch_keys, les, res, payloads):
            st = groups[key]
            if le is None:
                continue  # a where or an empty lifetime dropped it
            if le == st.run_le and re == st.run_re:
                st.run_k += 1
                if reads:
                    st.run_payloads.append(payload)
                continue
            # a new run of equal (le, re): fold the open one into its
            # pane, then the endpoint sweep's step for its first arrival
            panes = st.panes
            if st.run_k:
                run_re = st.run_re
                try:
                    panes[run_re] = st.fold.enter(panes[run_re], st.run_payloads, st.run_k)
                except TypeError as exc:
                    raise aggregate_error(self.specs, st.states, st.run_payloads, exc) from None
            pending = st.pending
            if pending:
                if pending[0] <= le:
                    drain(st, le)
                if pending and le > st.start:
                    st.out.append(row(st, st.start, le))
            st.start = le
            if re not in panes:
                push(pending, re)
                panes[re] = None
            st.run_le = le
            st.run_re = re
            st.run_k = 1
            if reads:
                st.run_payloads = [payload]

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

    def _stage(self, les, res, rows, batch_keys) -> Optional[str]:
        """Stage a chunk of rows as endpoints, or say why it cannot be."""
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
        key = np.fromiter(map(self._kids.__getitem__, batch_keys), np.int64, len(les))
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

    def sweep(self, due: dict, w=None) -> None:
        """Before the ``due`` keys advance at input watermark ``w``, sweep
        every endpoint, each key up to its horizon: the later of its last
        LE and (if due) its aggregate stage's watermark. Segments go to
        the key's ``out``, ``start`` and ``pending`` are what the loop
        would leave, and the rest is carried: ``_ends[:_n]``."""
        n = self._n
        if not n:
            return
        upto = np.full(len(self._states), _NOT_DUE, np.int64)
        if due:
            w = math.floor(w)  # another source's time may be a float
            horizon = np.fromiter(map(_W_IN, due.values()), np.int64, len(due))
            np.maximum(horizon, w, out=horizon)
            for future in self._prefix_futures:
                np.maximum(horizon - future, MIN_TIME, out=horizon)
            kids = np.fromiter(map(self._kids.__getitem__, due), np.int64, len(due))
            upto[kids] = _NEVER if w >= MAX_TIME else horizon
        key, t = self._ends[:n, 0], self._ends[:n, 1]
        t0 = int(t.min())  # sort by one combined key where it fits int64
        span = int(t.max()) - t0 + 1
        order = (np.argsort(key * span + (t - t0)) if span * len(upto) < 1 << 62
                 else np.lexsort((t, key)))
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
        times = t.tolist()  # one int per boundary, shared where segments meet
        at = times.__getitem__
        states = self._states
        for k, start, live_, end in zip(key[last].tolist(), map(at, last.tolist()), open_.tolist(),
                                        map(at, np.minimum(last + 1, len(t) - 1).tolist())):
            st = states[k]
            st.start = start
            st.pending = [end] if live_ else []
        if not len(seg):
            return
        values = [np.take(live[:, i], seg).tolist() for i in self._totals]
        seg_keys = key[seg]
        keys = [list(map(column.__getitem__, seg_keys.tolist())) for column in self._key_cols]
        rows = list(zip(map(at, seg.tolist()), map(at, (seg + 1).tolist()),
                        *[(values, keys)[s][i] for s, i in self._slots]))
        cuts = (np.flatnonzero(seg_keys[1:] != seg_keys[:-1]) + 1).tolist()
        for k, a, b in zip(seg_keys[[0, *cuts]].tolist(), [0, *cuts], [*cuts, len(rows)]):
            states[k].out = rows[a:b]

    def _to_loop(self) -> None:
        """Leave the array form: sweep up to each key's last LE, then make
        the carried entries panes, heap and fold totals (ints: exact)."""
        self.sweep({})
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

    # -- the aggregate ------------------------------------------------------

    def _fold(self, st: KeyState) -> None:
        """Enter the open run into its pane."""
        re = st.run_re
        try:
            st.panes[re] = st.fold.enter(st.panes[re], st.run_payloads, st.run_k)
        except TypeError as exc:
            raise aggregate_error(self.specs, st.states, st.run_payloads, exc) from None
        st.run_k = 0
        st.run_le = st.run_re = st.run_payloads = None

    def _row(self, st: KeyState, le: int, re: int) -> tuple:
        """A segment's row in the layout."""
        sources = ([x.value() for x in st.states], st.key_values)
        return (le, re, *[sources[s][i] for s, i in self._slots])

    def _drain(self, st: KeyState, t: int) -> None:
        """Retire every pane with RE <= ``t``, closing the constant-value
        segment at each RE before its pane leaves."""
        pending, panes, fold, out = st.pending, st.panes, st.fold, st.out
        while pending and pending[0] <= t:
            end = heapq.heappop(pending)
            if end > st.start:
                out.append(self._row(st, st.start, end))
            st.start = end
            fold.leave(panes.pop(end))

    # -- the chain protocol -------------------------------------------------

    def advance(self, st: KeyState, watermark: int) -> List[tuple]:
        """What a per-key chain's ``advance(watermark)`` does: finish the
        sweep, retire what the watermark closes, and set the key's
        watermark, wake time and idle delta; returns its new output rows
        (``(le, re, *values)`` in :attr:`layout`)."""
        if watermark >= MAX_TIME:
            st.idle_delta = None
            if st.run_k:
                self._fold(st)
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
        if st.run_k:
            self._fold(st)
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

    @staticmethod
    def _take(st: KeyState) -> List[tuple]:
        out = st.out
        if out:
            st.out = []
        return out
