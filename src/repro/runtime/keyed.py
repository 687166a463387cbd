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

The GroupApply node's scheduler (``runtime/dataflow.py``) treats a
``KeyState`` exactly like a per-key chain: it has a watermark, a wake
time and an idle delta, and :meth:`KeyedAggregate.advance` is that
chain's ``advance``. Per key, the sweep performs the same ``enter`` /
``leave`` calls and emits the same segments in the same order as
:class:`~repro.temporal.operators.SnapshotAggregate` behind the chain's
stages would, and — taking the key's own input watermark, as a chain
does — leaves the same watermark and wake time, so the output is
identical event for event and call for call
(``tests/runtime/test_wake_scheduling.py`` runs both).

A segment is emitted as one row ``(le, re, *values)`` whose values
follow :attr:`KeyedAggregate.layout`, the payload's column order; the
node builds an ``Event`` from a row only where something in the flow
reads it as one (``runtime/dataflow.py``).
"""

from __future__ import annotations

import heapq
from itertools import repeat
from math import inf
from typing import List, Optional

from ..temporal.operators.aggregate import _Together
from ..temporal.operators.base import WAKE_ALWAYS
from ..temporal.operators.stateless import (
    WINDOW_SPECS,
    _window_lifetimes,
    event_kernel,
)
from ..temporal.time import MAX_TIME, MIN_TIME


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
        self.ordinal = self.stamp = 0  # owned by the GroupApply node


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
        #: a lone aggregate that no key column overrides: its rows are
        #: ``(le, re, value, *key_values)``, built inline
        self._lone = len(self.specs) == 1 and self._slots == (
            (0, 0), *((1, j) for j in range(len(self.keys)))
        )
        prefix = shared[:-1]
        self._prefix_futures = futures[:-1]
        #: a stateless stage moves LEs back (a backward shift)
        self._lags = any(self._prefix_futures)
        self._agg_future = futures[-1]
        #: a lone time window (or nothing) computes lifetimes from the LE
        #: column; anything else runs each event through every stage
        self._window = None
        self._kernel = None
        if len(prefix) == 1 and getattr(prefix[0], "spec", None) and (
            prefix[0].spec[0] in WINDOW_SPECS
        ):
            self._window = prefix[0].spec
        elif prefix:
            self._kernel = event_kernel(prefix)
        self._wave = None  # the input watermark the one below is for
        self._w_in = MIN_TIME  # what the aggregate stage sees

    # -- feeding ------------------------------------------------------------

    def feed(self, node, fresh, watermark) -> None:
        """Sweep LE-ordered ``fresh`` into the key states of ``node`` (the
        GroupApply ``_OpNode``, whose input watermark is ``watermark``),
        creating and activating keys in first-appearance order exactly as
        per-key chains would be."""
        groups, active, due = node._groups, node._active, node._due
        keys = self.keys
        batch_keys = self._keys(fresh)
        # a key fed again before the next wave keeps its place and state
        for key in dict.fromkeys(batch_keys):
            if key in due:
                continue
            st = groups.get(key)
            if st is None:
                values = (key,) if len(keys) == 1 else key
                st = groups[key] = KeyState(values, self.specs)
            if key not in active:
                st.ordinal = next(node._ordinals)
                active[key] = st
            due[key] = st
            st.idle_delta = None
        if fresh[-1].le > watermark:
            # the batch runs ahead of the group (a hop before the
            # GroupApply): each key's last LE may lead the next wave's
            # watermark, which otherwise covers it
            for key, e in dict(zip(batch_keys, fresh)).items():
                st = groups[key]
                if e.le > st.w_in:
                    st.w_in = e.le
        les, res, payloads = self._lifetimes(fresh)
        reads = self.reads_payloads
        if not reads:
            payloads = repeat(None)
        drain = self._drain
        row = self._row
        lone = self._lone
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
                panes[run_re] = st.fold.enter(
                    panes[run_re], st.run_payloads, st.run_k
                )
            pending = st.pending
            if pending:
                if pending[0] <= le:
                    drain(st, le)
                if pending and le > st.start:
                    st.out.append(
                        (st.start, le, st.fold.value(), *st.key_values)
                        if lone else row(st, st.start, le)
                    )
            st.start = le
            if re not in panes:
                push(pending, re)
                panes[re] = None
            st.run_le = le
            st.run_re = re
            st.run_k = 1
            if reads:
                st.run_payloads = [payload]

    def _keys(self, fresh) -> list:
        keys = self.keys
        try:
            if len(keys) == 1:
                (k0,) = keys
                return [e.payload[k0] for e in fresh]
            return [tuple(e.payload[k] for k in keys) for e in fresh]
        except KeyError as exc:
            bad = next(
                e.payload for e in fresh if any(k not in e.payload for k in keys)
            )
            raise KeyError(
                f"GroupApply key column {exc} missing from payload {bad!r}"
            ) from None

    def _lifetimes(self, fresh):
        """``(les, res, payloads)`` of ``fresh`` after the stateless
        stages; ``les[i]`` is ``None`` where a stage dropped event ``i``."""
        les = [e.le for e in fresh]
        if self._window is not None:
            les, res = _window_lifetimes(self._window, les)
        else:
            res = [e.re for e in fresh]
        if self._kernel is None:
            return les, res, [e.payload for e in fresh] if self.reads_payloads else None
        payloads = [e.payload for e in fresh]
        for i, out in enumerate(map(self._kernel, les, res, payloads)):
            if out is None:
                les[i] = None
            else:
                les[i], res[i], payloads[i] = out
        return les, res, payloads

    # -- the aggregate ------------------------------------------------------

    def _fold(self, st: KeyState) -> None:
        """Enter the open run into its pane."""
        re = st.run_re
        st.panes[re] = st.fold.enter(st.panes[re], st.run_payloads, st.run_k)
        st.run_k = 0
        st.run_le = st.run_re = st.run_payloads = None

    def _row(self, st: KeyState, le: int, re: int) -> tuple:
        """A segment's row in the layout, for any layout; a lone
        aggregate's is built inline the same way."""
        sources = ([x.value() for x in st.states], st.key_values)
        return (le, re, *[sources[s][i] for s, i in self._slots])

    def _drain(self, st: KeyState, t: int) -> None:
        """Retire every pane with RE <= ``t``, closing the constant-value
        segment at each RE before its pane leaves."""
        pending, panes, fold, out = st.pending, st.panes, st.fold, st.out
        lone = self._lone
        while pending and pending[0] <= t:
            end = heapq.heappop(pending)
            if end > st.start:
                out.append(
                    (st.start, end, fold.value(), *st.key_values)
                    if lone else self._row(st, st.start, end)
                )
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
