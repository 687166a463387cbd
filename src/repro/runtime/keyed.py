"""The array form of a keyed GroupApply: every key's windowed count or int sum in one sort a wave.

A GroupApply runs its per-key sub-plan one of two ways (docs/EXECUTION.md,
"GroupApply"): a :class:`~repro.runtime.dataflow._FlatChain` per key, or,
for a node of a flow's own plan under the batch driver whose sub-plan is
time windows, hops or shifts (or none) into ``count`` or plain ``sum`` —
every windowed count and sum of the BT pipeline and of the scale shapes —
this module's :class:`KeyedAggregate`, which runs it for every key at once
as numpy passes over int64 columns.

A fed chunk is staged as endpoint rows ``(key id, time, count, *sums)``:
``+1, +v`` at each LE and ``-1, -v`` at each RE, lifetimes computed
through the stages over arrays. The chunk arrives as events, or straight
from a source of rows as a :class:`~repro.temporal.event.Batch`; when no
key or summed column is one the rows' decode drops (``Batch.drops``:
``Time``, ``_re``, and a tagged input's ``_src``), the rows are read as
they are, and no ``Event`` or payload dict is built.

Each wave, :meth:`KeyedAggregate.sweep` sorts the endpoints once and
sweeps every key up to its horizon: runs of equal (key, time) summed,
running totals per key, a segment wherever a key's count is live. Per key
that is the aggregate's own endpoint sweep
(``operators/aggregate.py``'s ``endpoint_sweep``) over the rows a chain's
stages hand it. :meth:`KeyedAggregate.wave` also does what the
scheduler's walk over per-key chains does — each due key's watermark,
wake time and idle delta, and the scheduler's two heaps — as array
passes over the keys' scheduling columns (one int64 row per key id), with
every effect the walk shows per call. So the releases, watermarks, wake
times and chain-advance counts are the chains', call for call
(``tests/runtime/test_wake_scheduling.py``). A release is the segments as
one layout :class:`Batch` (:meth:`KeyedAggregate.batch`); no row is
built.

A chunk whose times or sums are not ints, or pass the int64 bounds, and a
watermark that is not an int, cannot be held: the node raises
:class:`ArrayFormUnfit`, and ``Engine.run`` runs the plan again on
per-key chains, which give what the array form would have, call for call.
"""

from __future__ import annotations

from array import array
from itertools import chain, count, islice
from operator import itemgetter
from typing import List, Optional

import numpy as np

from ..temporal.event import _LE, _PAYLOAD, _RE, Batch
from ..temporal.operators.base import WAKE_ALWAYS, WAKE_AT_FLUSH
from ..temporal.operators.stateless import WINDOW_SPECS
from ..temporal.time import _INT_ONLY, MAX_TIME, data_error

#: the array form holds times within ±_TIME_LIMIT after the stages, and
#: sums while Σ max|v| × rows stays under _SUM_LIMIT: nothing overflows
_TIME_LIMIT, _SUM_LIMIT = 3 << 61, 1 << 61
_NEVER, _NOT_DUE = np.iinfo(np.int64).max, np.iinfo(np.int64).min  # horizons
#: the scheduling columns, one int64 row per key id: what a key's chain
#: would hold, the watermark its floor too, the pending head (``_NEVER``:
#: no pane)
_W_IN, _MARK, _START, _PEND, _WAKE, _ORD, _STAMP, _ACTIVE, _DUE = range(9)
#: ``EngineStats.resolutions`` name: a run that met an input the array form
#: cannot hold and ran again with every GroupApply on per-key chains
RERUN_ON_CHAINS = "keyed.rerun_on_chains"
#: why a keyed node gave up the array form: what it could not hold
TIME_NOT_INT = "a time is not an int"
SUM_NOT_INT = "a summed value is not an int"
PAST_BOUNDS = "an int past the int64 bounds"
WATERMARK_NOT_INT = "a watermark is not an int"


class ArrayFormUnfit(Exception):
    """A GroupApply in the array form (``keyed``) met an input it cannot
    hold as int64: ``reason`` says what. ``Engine.run`` catches it and
    runs the plan again on per-key chains; a caller driving a
    :class:`~repro.runtime.dataflow.Dataflow` itself gets it."""

    def __init__(self, keyed: "KeyedAggregate", reason: str):
        super().__init__(f"a GroupApply by {', '.join(map(str, keyed.keys))} met an "
                         f"input the array form cannot hold: {reason}")
        self.node_id, self.reason = keyed.node_id, reason


def lex_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The order that sorts int64 rows by ``major``, then ``minor``, equal
    pairs in any order: one combined key where it fits int64."""
    m0, t0 = int(major.min()), int(minor.min())
    span = int(minor.max()) - t0 + 1
    if (int(major.max()) - m0 + 1) * span < 1 << 62:
        return np.argsort((major - m0) * span + (minor - t0))
    return np.lexsort((minor, major))


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
    """The per-key plan ``(window | hop | shift)* → count / sum`` of
    GroupApply ``node``, run for all keys as arrays.

    ``specs`` are the stages' AlterLifetime specs, ``aggregates`` the
    aggregate's ``AggSpec`` list (counts and plain sums), ``futures`` the
    future extents of the stages, then of the aggregate, and ``floor`` the
    group input's watermark before any input.
    """

    def __init__(self, node, specs, aggregates, futures, floor):
        self.node_id = node.node_id
        self.keys = tuple(node.keys)
        # a segment's payload as the chains build it: the aggregate
        # outputs, then the key columns (one named like an output takes
        # its place); each column's value is ``(0, i)``: aggregate
        # ``i``'s, or ``(1, j)``: key column ``j``'s
        slots = {s.into: (0, i) for i, s in enumerate(aggregates)}
        slots.update({k: (1, j) for j, k in enumerate(self.keys)})
        #: the columns of every segment this node releases
        self.layout = tuple(slots)
        self._slots = tuple(slots.values())
        #: how far the stateless stages move LEs back (backward shifts): the
        #: aggregate's input watermark is the key's input watermark less it
        self._lag = sum(futures[:-1])
        self._agg_future = futures[-1]
        self._specs = specs
        #: the sweep needs the input's REs: no time window sets them first
        self._reads_re = not specs or specs[0][0] not in WINDOW_SPECS
        self._key_of = itemgetter(*self.keys)
        #: a source's rows are swept as they are when none of the key and
        #: summed columns is one the rows' decode drops (``Batch.drops``)
        self._row_columns = frozenset((*self.keys, *(s.column for s in aggregates)))
        self._sum_columns = [s.column for s in aggregates if s.kind == "sum"]
        sums = count(1)  # each spec's running total: 0 the count
        self._totals = [next(sums) if s.kind == "sum" else 0 for s in aggregates]
        self._slack = sum(abs(x) for spec in specs for x in spec[1:])
        self._bound = 0
        #: key -> its id, which indexes the key columns and ``_sched``
        self.ids = _Ids()
        self._key_cols: List[list] = [[] for _ in self.keys]
        #: the scheduling columns (a new key's: ``_fresh``), and the
        #: scheduler's two heaps as entries ``(watermark | wake, stamp, key id)``
        self._fresh = (floor, floor - sum(futures), floor, _NEVER, WAKE_ALWAYS, 0, 0, 0, 0)
        self._sched = np.empty((0, len(self._fresh)), np.int64)
        self._held = self._wakes = np.empty((0, 3), np.int64)
        #: what the scheduler reads of them (a heap's least entry, ``None``: empty)
        self.active_n = self.due_n = 0
        self.held_top = self.wake_top = None
        #: what the chains' scheduler would count: keys advanced (also the
        #: heap stamps), activations (the next ordinal), and the largest
        #: idle key's watermark lag (< 0: none went idle yet)
        self.chain_advances = self._activations = 0
        self.idle_delta = -1
        #: endpoint rows (key id, time, count, *sums): what the last wave
        #: carried, then the chunks since, are the first ``_n``
        self._ends = self._sorted = np.empty((0, 3 + len(self._sum_columns)), np.int64)
        self._n = 0

    # -- feeding ------------------------------------------------------------

    def feed(self, fresh, watermark) -> None:
        """Stage LE-ordered ``fresh``, its new keys created in
        first-appearance order and its keys activated as per-key chains
        would be (``watermark``: the GroupApply's input watermark); raise
        :class:`ArrayFormUnfit` when it cannot be staged."""
        les, res, payloads = self._columns(fresh)
        ids = self.ids
        known = len(ids)
        try:
            kid = np.fromiter(map(ids.__getitem__, map(self._key_of, payloads)), np.int64,
                              len(les))
        except (KeyError, TypeError) as exc:  # the run ends with it
            raise key_error(self.keys, fresh, exc) from None
        one = len(self.keys) == 1
        for key in islice(ids, known, None):  # a column row per new key
            for column, value in zip(self._key_cols, (key,) if one else key):
                column.append(value)
        if len(ids) > len(self._sched):
            self._sched = np.concatenate((self._sched, np.tile(self._fresh, (len(ids), 1))))
        self._stage(les, res, payloads, kid)
        self._activate(kid, les, watermark)

    def _columns(self, fresh):
        """``(les, res, payloads)`` of ``fresh``, ``res`` ``None`` where a
        time window computes them: read off a source's rows (a
        :class:`Batch` of them, each row its own read-only payload) where
        they hold every column read, else off the events."""
        if type(fresh) is Batch and fresh.rows is not None and fresh.drops.isdisjoint(
            self._row_columns
        ):
            return fresh.les, fresh.res if self._reads_re else None, fresh.rows
        les = list(map(_LE, fresh))
        res = list(map(_RE, fresh)) if self._reads_re else None
        return les, res, list(map(_PAYLOAD, fresh))

    def _activate(self, kid: np.ndarray, les, watermark) -> None:
        """The chains' activation of the keys ``kid`` of a staged chunk, in
        columns: a key not active takes the next ordinal, in first-appearance
        order, and every fed key is due."""
        s = self._sched
        idle = kid[s[kid, _ACTIVE] == 0]
        if len(idle):
            ids, first = np.unique(idle, return_index=True)
            ids = ids[np.argsort(first)]
            base = self._activations
            self._activations += len(ids)
            s[ids, _ORD] = np.arange(base, base + len(ids))
            s[ids, _ACTIVE] = 1
            self.active_n += len(ids)
        s[kid, _DUE] = 1
        if les[-1] > watermark:
            # the batch runs ahead of the group (a hop before the
            # GroupApply): each key's last LE may lead the next wave's
            # watermark, which otherwise covers it
            np.maximum.at(s[:, _W_IN], kid, np.array(les, np.int64))

    def _stage(self, les, res, rows, key: np.ndarray) -> None:
        """Stage a chunk of rows, ``key`` their key ids, as endpoints, or
        raise :class:`ArrayFormUnfit`."""
        if not set(map(type, chain(les, res or ()))) <= _INT_ONLY:
            raise ArrayFormUnfit(self, TIME_NOT_INT)
        sums, bound = [], self._bound
        for column in self._sum_columns:
            values = list(map(itemgetter(column), rows))  # a KeyError as the chains'
            if not set(map(type, values)) <= _INT_ONLY:
                raise ArrayFormUnfit(self, SUM_NOT_INT)
            bound += max(max(values), -min(values)) * len(values)
            sums.append(values)
        lo, hi = les[0] - self._slack, (les[-1] if res is None else max(res)) + self._slack
        if bound >= _SUM_LIMIT or not -_TIME_LIMIT < lo <= hi < _TIME_LIMIT:
            raise ArrayFormUnfit(self, PAST_BOUNDS)
        self._bound = bound
        le, sums = np.array(les, np.int64), np.array(sums, np.int64).reshape(-1, len(les))
        re = None if res is None else np.array(res, np.int64)
        keep = None
        for spec in self._specs:  # each AlterLifetime's le_fn / re_fn, over arrays
            if spec[0] == "shift":
                le, re = le + spec[1], re + spec[2]
                if spec[2] < spec[1]:  # an emptied lifetime vanishes
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

    # -- the sweep ----------------------------------------------------------

    def sweep(self, due: np.ndarray, w=None) -> Optional[np.ndarray]:
        """Before the keys ``due`` (ids) advance at input watermark ``w``,
        sweep every endpoint, each key up to its horizon: the later of its
        last LE and (if due) its aggregate stage's watermark. The ``_START``
        and ``_PEND`` columns are what a chain's aggregate would leave as
        its open segment's start and least pending RE, the rest is carried
        (the first ``_n`` endpoint rows). Returns the segments as int64 rows ``(le,
        re, key id, *live totals)``, by key id, then LE (``None``: none)."""
        n = self._n
        if not n:
            return None
        upto = np.full(len(self.ids), _NOT_DUE, np.int64)
        if len(due):
            upto[due] = _NEVER if w >= MAX_TIME else np.maximum(
                self._sched[due, _W_IN], w) - self._lag
        order = lex_order(self._ends[:n, 0], self._ends[:n, 1])
        ends = np.take(self._ends[:n], order, axis=0, out=self._sorted[:n], mode="clip")
        key, t = ends[:, 0], ends[:, 1]
        head = np.concatenate(([True], key[1:] != key[:-1]))  # a key's first
        heads = np.flatnonzero(head)
        first = key[heads]  # a key's last entry that adds: its last LE, or start
        upto[first] = np.maximum(upto[first], np.maximum.reduceat(
            np.where(ends[:, 2] > 0, t, _NOT_DUE), heads
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

    def batch(self, segments: np.ndarray) -> Batch:
        """Segments as one :class:`Batch` in :attr:`layout`, no row built."""
        columns = np.ascontiguousarray(segments.T)
        les, res = array("q", columns[0].tobytes()), array("q", columns[1].tobytes())
        kids = columns[2].tolist()
        values = [columns[3 + self._totals[i]].tolist() if s == 0
                  else list(map(self._key_cols[i].__getitem__, kids)) for s, i in self._slots]
        return Batch.of_columns(self.layout, les, res, values)

    # -- the walk over the due keys -----------------------------------------

    def flush(self):
        """Every key's flush: all its segments, and their ranks for
        ``GroupScheduler._release`` (key creation order, as the chains')."""
        self.chain_advances += len(self.ids)
        segments = self.sweep(np.arange(len(self.ids)), MAX_TIME)
        return segments, None if segments is None else segments[:, 2]

    def wave(self, w: int):
        """``GroupScheduler._walk`` over the due keys as array passes:
        each due key's advance at input watermark ``w``, and the
        scheduler's two heaps as entry arrays, with every effect they show
        — a stale wake top, the rebuild. Returns the segments and their
        ranks for ``GroupScheduler._release``; raises
        :class:`ArrayFormUnfit` for a ``w`` that is not an int (another
        source's time)."""
        if type(w) is not int:
            raise ArrayFormUnfit(self, WATERMARK_NOT_INT)
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
        stage_w, start, wake = w_in - self._lag, rows[:, _START], rows[:, _PEND]
        live = wake != _NEVER  # a pane lives: the key stays active
        # the aggregate's output watermark: its input's, held back to the
        # open segment's start while a pane lives
        # (never below the last: neither term falls, as every floor
        # starts at its own, below the beginning of time if LEs move back)
        ww = rows[:, _MARK] = np.where(live, np.minimum(stage_w, start), stage_w) - agg_future
        # not frozen — were the input's watermark just short of the wake
        # time, the key's would move (no hold binds yet): the key stays
        # awake
        awake = live & (start - agg_future > ww) & (wake - 1 > w_in)
        wake = np.where(awake, WAKE_ALWAYS, wake)
        first = self.chain_advances + 1
        self.chain_advances += len(due)
        stamp = rows[:, _STAMP] = np.arange(first, first + len(due))
        if not live.all():  # idle keys leave the active set
            delta = w - ww[~live]
            rows[~live, _ACTIVE] = 0
            self.active_n -= len(delta)
            self.idle_delta = max(self.idle_delta, int(delta.max()))
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
