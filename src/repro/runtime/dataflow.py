"""The incremental operator runtime shared by batch and streaming drivers.

This module is the single execution engine for CQ plans. A
:class:`Dataflow` lays its plan out flat — a :class:`_FlatPlan`: one
position per input, then one step per operator node in topological
order — and one :class:`_FlatChain` runs it whenever new input or
watermarks arrive:

* ``feed(source, events, watermark)`` appends time-ordered events to a
  named source's position (a lone :class:`~repro.temporal.event.Batch`
  of a source's rows is queued as it is, for a keyed sweep to read by
  column);
* ``advance()`` runs every step once, in order, and returns the query
  outputs that are now *final* — no future input can change them (the
  CTI/watermark contract of Section III-C.1): a list, or a ``Batch`` of
  layout values when the root is a keyed GroupApply;
* ``flush()`` declares end-of-input and drains all remaining state.

Both execution modes are thin drivers over this one graph:
:class:`repro.temporal.Engine` feeds whole sources through in bounded
batches (memory proportional to window state plus one batch, not to the
partition), while :class:`repro.temporal.StreamingEngine` feeds one
event per push. They share the identical operator objects, multicast
and GroupApply keying, so batch ≡ streaming holds by construction.

Operators hold only active-window state. One pass hands each step the
list its input emitted in that pass, read-only and shared by every
consumer. The only input kept across
passes is a binary operator's undelivered left and right queue, so the
batch driver's memory is bounded by operator state plus one batch.

A GroupApply is a :class:`GroupScheduler` step, which runs its
sub-plan per key on the same two classes — a :class:`_FlatPlan` over
the group input, and a :class:`_FlatChain` per key (or one keyed sweep
over every key, ``runtime/keyed.py``). So one loop interprets every
plan, the top level and each key's alike.

Plans containing an operator whose output timestamps may precede its
input unboundedly (a *custom* AlterLifetime) cannot run incrementally.
The streaming driver rejects them (:class:`StreamingUnsupported`); the
batch driver sets ``allow_unstreamable=True``, which wraps exactly those
operators in :class:`Deferred` — buffer until flush, then apply the same
operator object over the buffered input — at the top level and inside a
GroupApply's per-key chains alike.

No step refers back to its flow, so the graph holds no reference cycle
and dies by refcount.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..temporal.event import _LE, _ROW_LE, Batch, Event
from ..temporal.operators.base import WAKE_ALWAYS, WAKE_AT_FLUSH, UnaryOperator, _deliver
from ..temporal.plan import (
    AggregateNode,
    AlterLifetimeNode,
    ExchangeNode,
    GroupApplyNode,
    PlanNode,
    ProjectNode,
    SourceNode,
    UnionNode,
    WhereNode,
    topological_order,
)
from ..temporal.time import MAX_TIME, MIN_TIME
from ..obs.trace import NULL_TRACER
from .keyed import WATERMARK_NOT_INT, KeyedAggregate, key_error, lex_order


class StreamingUnsupported(ValueError):
    """The plan cannot run incrementally (unbounded lifetime rewrites)."""


def _before(items: list, t: int, le=_LE) -> int:
    """How many of the LE-sorted ``items`` (events, or rows with
    ``le=_ROW_LE``) have an LE before ``t``: ``bisect_left`` by LE, whose
    ``key=`` needs Python 3.10."""
    lo, hi = 0, len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if le(items[mid]) < t:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _batch_per_key(
    fresh: List[Event], keys: Tuple[str, ...]
) -> Dict[Tuple, List[Event]]:
    """Batch one round's events per group key so each chain advances once
    (identical results to event-at-a-time feeding; the pending backlog
    re-establishes cross-group LE order). Insertion order — key
    first-appearance order — is what chain creation keys off, so it
    must stay a pure function of the input stream."""
    per_key: Dict[Tuple, List[Event]] = {}
    key_of = itemgetter(*keys) if len(keys) > 1 else lambda p, k=keys[0]: (p[k],)
    try:
        for event in fresh:
            per_key.setdefault(key_of(event.payload), []).append(event)
    except (KeyError, TypeError) as exc:
        raise key_error(keys, fresh, exc) from None
    return per_key


def _own_future(node: PlanNode, future: Optional[int]) -> int:
    """What the runtime takes off the operator's ``watermark_out``: the
    node's future extent, except for a GroupApply's scheduler and a
    deferred operator, which report their output watermark whole."""
    if future is None or isinstance(node, GroupApplyNode):
        return 0
    return future


class Deferred(UnaryOperator):
    """An unbounded lifetime rewrite: buffer everything, and apply the
    same operator object's ``apply`` at flush. The output watermark stays
    at the beginning of time until then, so everything downstream holds
    its output back."""

    def __init__(self, op):
        self._op = op
        self._store: Optional[List[Event]] = []

    def on_batch(self, events) -> list:
        self._store.extend(events)
        return []

    def on_flush(self) -> list:
        out = self._op.apply(self._store)
        self._store = None
        return out

    def watermark_out(self, w: int) -> int:
        return MIN_TIME

    def next_wake(self) -> Optional[int]:
        return None if self._store is None else WAKE_AT_FLUSH


class GroupScheduler(UnaryOperator):
    """A GroupApply's per-key scheduling, as one unary operator: at the
    top level, and per outer key as a step of a nested GroupApply's
    chain.

    One chain per key — a :class:`_FlatChain`, or a
    :class:`~repro.runtime.keyed.KeyState` of the keyed sweep — activated
    in key first-appearance order; a wave advances the ones fed or due,
    and releases their LE-merged outputs up to the group watermark.
    """

    def __init__(self, node: GroupApplyNode, flat: _FlatPlan, wave_events: int = 0,
                 tracer=NULL_TRACER, emits_rows: bool = False):
        self.keys = node.keys
        self._wave_events = wave_events
        self._tracer = tracer
        #: the sub-plan's flat form, ``_flat_plan(node)``: every key's
        #: chain reads it, and a nested GroupApply's schedulers share it
        self._flat = flat
        #: one sweep over every key instead of a chain per key; its
        #: per-key states stand in for chains
        self._keyed = _keyed_aggregate(node, flat)
        self._le = _LE if self._keyed is None else _ROW_LE
        #: the keyed sweep's rows are merged by ``_le`` as chain events
        #: are, and made events as they are emitted: except at the
        #: flow's root, which keeps each release as one :class:`Batch` in
        #: this layout (``released``) for :meth:`Dataflow.advance` to take
        self.layout = self._keyed.layout if emits_rows and self._keyed else None
        self.released: Optional[Batch] = None
        #: a keyed sweep in the array form: its backlog is the sweep's
        #: int64 segment rows, until the node takes its per-row loop
        self._columns = self._keyed is not None and self._keyed._arrayable
        self._groups: Dict[Tuple, object] = {}
        #: the non-idle chains, in activation order (the order the
        #: cross-group merge appends their outputs in)
        self._active: Dict[Tuple, object] = {}
        self._ordinals = itertools.count()
        #: wake-time scheduling: chains that must advance at the next
        #: wave whatever its watermark (fed, just activated, or unable
        #: to sleep), a min-heap of ``(wake, stamp, key, chain)`` for the
        #: sleeping rest, and a min-heap of ``(watermark, stamp, chain)``
        #: over every non-idle chain for the group watermark. Both heaps
        #: delete lazily: an entry is live iff its stamp is still the
        #: chain's, i.e. the chain has not advanced since the push. The
        #: array form keeps all three as columns (``KeyedAggregate.wave``).
        self._due: Dict[Tuple, object] = {}
        self._wake_heap: List[tuple] = []
        self._held: List[tuple] = []
        #: chain advances made by this scheduler; the wave also draws
        #: its heap stamps from it
        self.chain_advances = 0
        #: merged chain outputs not yet released, LE-sorted (stable): a
        #: list, or once it has some, the array form's int64 segment rows
        self._pending = []
        self._fresh: Sequence[Event] = ()  # handed over, fed at the watermark
        self._fed_since_wave = 0
        self._idle_delta = -1  # < 0: no chain has gone idle yet
        #: the group watermark the last wave left, and the input
        #: watermark of the last ``on_watermark``
        self.watermark = self._w = MIN_TIME
        #: the last ``on_watermark`` waited for more input instead of a
        #: wave: the next ``watermark_out`` reports the last wave's
        self._waited = False

    # -- the unary operator protocol ------------------------------------------

    def on_batch(self, events) -> list:
        # fed with the input watermark it arrives with (on_watermark)
        self._fresh = events
        return []

    def on_watermark(self, w: int) -> list:
        # an outer chain advancing for another step's sake moves
        # nothing here: no wave
        moved = self._fresh or w != self._w
        self._w = w
        self._feed(w)
        # The batch driver amortizes watermark waves: a wave advances
        # every chain fed since the last one, so it only pays for itself
        # once a comparable volume of fresh input has accumulated;
        # buffered input stays bounded by O(threshold + keys)
        threshold = self._wave_events
        if not moved or (
            threshold and self._fed_since_wave < threshold + 2 * len(self._groups)
        ):
            self._waited = True
            return []
        self._fed_since_wave = 0
        return self._wave(w)

    def on_flush(self) -> list:
        """End of input: every chain flushes for real."""
        self._feed(MAX_TIME)
        keyed = self._keyed
        self.chain_advances += len(self._groups)
        segments = keyed.sweep(np.arange(len(self._groups)), MAX_TIME) if self._columns else None
        pending = self._pending
        for chain in self._groups.values():
            outs = chain.advance(MAX_TIME) if keyed is None else keyed.advance(chain, MAX_TIME)
            if outs:
                pending.extend(outs)
        if self._columns:  # ties in key creation order, as the walk above
            return self._release(segments, None if segments is None else segments[:, 2])
        # a stable LE sort == the cross-group LE merge: ties keep chain
        # order, so events never compare
        pending.sort(key=self._le)
        self._pending = []
        return pending if keyed is None else self._emit(Batch.of_layout(keyed.layout, pending))

    def watermark_out(self, w: int) -> int:
        if self._waited:
            self._waited = False
            return self.watermark
        if self._idle_delta >= 0:
            w -= self._idle_delta
        held = self._keyed.held_top if self._columns else self._held[0][0] if self._held else None
        if held is not None and held < w:
            w = held
        return w

    def next_wake(self) -> Optional[int]:
        if self._columns:  # the array form's keys and heaps are columns
            keyed = self._keyed
            due, active, wake = keyed.due_n, keyed.active_n, keyed.wake_top
        else:
            due, active = self._due, self._active
            wake = self._wake_heap[0][0] if self._wake_heap else None
        if due or self._fed_since_wave:
            return WAKE_ALWAYS
        if not active:
            return WAKE_ALWAYS if len(self._pending) else None
        if wake is None:
            return WAKE_AT_FLUSH  # every chain sleeps until the flush
        # a stale top only makes this early. Backlog in ``_pending`` is
        # released by the group watermark, which ``watermark_out``
        # accounts for
        return wake

    # -- internals --------------------------------------------------------------

    def _feed(self, w: int) -> None:
        fresh = self._fresh
        if not fresh:
            return
        self._fresh = ()
        self._fed_since_wave += len(fresh)
        if self._keyed is not None:
            self._keyed.feed(self, fresh, w)
            return
        flat = self._flat
        for key, events in _batch_per_key(fresh, self.keys).items():
            chain = self._groups.get(key)
            if chain is None:
                chain = self._groups[key] = _FlatChain(flat, dict(zip(self.keys, key)))
            # GroupApply input is LE-ordered: nothing before the last LE
            # fed can reach this key any more
            chain.feed(0, events, events[-1].le)
            chain.idle_delta = None
            # a chain gets its activation ordinal on entry — re-feeding
            # an already active chain keeps its place, exactly like
            # re-assigning a dict key — and is due at the next wave
            if key not in self._active:
                chain.ordinal = next(self._ordinals)
                self._active[key] = chain
            self._due[key] = chain

    def _emit(self, batch: Batch) -> list:
        """A keyed sweep's release: events here, except at a flow's root,
        which keeps it as ``released``."""
        if self.layout is None:
            return list(batch)
        self.released = batch
        return []

    def _release(self, segments: Optional[np.ndarray], ranks, before=None) -> list:
        """Merge the array form's new ``segments`` into its backlog by LE (at
        an equal LE the backlog first, in its order, then by ``ranks``; one
        key's segments never share an LE), and release the rows with an LE
        before ``before`` (``None``: every row)."""
        backlog = self._pending
        if segments is not None:
            if len(backlog):
                segments = np.concatenate((backlog, segments))
                ranks = np.concatenate((np.arange(len(backlog)), ranks + len(backlog)))
            backlog = np.take(segments, lex_order(segments[:, 0], ranks), axis=0)
        cut = len(backlog)
        if cut and before is not None:  # an int LE is before ``before`` iff before its ceiling
            cut = int(np.searchsorted(backlog[:, 0], math.ceil(before)))
        self._pending = backlog[cut:]
        return self._emit(self._keyed.batch(backlog[:cut])) if cut else []

    def _wave(self, w: int) -> list:
        """One watermark wave.

        Advances only the chains that are due — fed or activated since
        the last wave, or unable to sleep — plus those whose wake time
        ``w`` has reached; a sleeping chain would emit nothing and keep
        its watermark, so skipping it is unobservable. Quiescent chains
        track the watermark arithmetically (their delta is a plan
        constant, so one representative bound covers all of them). The
        cost is O(fed + due), not O(active chains).
        """
        keyed = self._keyed
        if self._columns and type(w) is not int:  # another source's time
            keyed._to_loop(self, WATERMARK_NOT_INT)
        if self._tracer.enabled:
            # wave width is a pure function of the data and the wave
            # schedule
            width = keyed.active_n if self._columns else len(self._active)
            self._tracer.metrics.histogram("dataflow.wave_width").observe(width)
        if self._columns:  # the same walk, as array passes over the columns
            segments, ranks = keyed.wave(self, w)
        else:
            self._walk(w)
        group_w = self.watermark_out(w)
        if group_w > self.watermark:
            self.watermark = group_w
        if self._columns:
            return self._release(segments, ranks, group_w)
        pending = self._pending
        idx = _before(pending, group_w, self._le)
        if not idx:
            return []
        released = pending[:idx]
        del pending[:idx]
        return released if keyed is None else self._emit(Batch.of_layout(keyed.layout, released))

    def _walk(self, w: int) -> None:
        """Advance the due chains, keeping the heaps."""
        pending, active, wake_heap, held, keyed = (
            self._pending, self._active, self._wake_heap, self._held, self._keyed)
        due, self._due = self._due, {}
        while wake_heap and wake_heap[0][0] <= w:
            _, stamp, key, chain = heappop(wake_heap)
            if chain.stamp == stamp:
                due[key] = chain
        # activation order is the order a walk over the whole active set
        # would reach these chains in, so their outputs join the merge in
        # the same relative order — and skipped chains add nothing
        added = False
        for key, chain in sorted(due.items(), key=_activation_order):
            outs = chain.advance(w) if keyed is None else keyed.advance(chain, w)
            self.chain_advances += 1
            chain.stamp = stamp = self.chain_advances
            if outs:
                pending.extend(outs)
                added = True
            if chain.idle_delta is not None:
                del active[key]
                self._idle_delta = max(self._idle_delta, chain.idle_delta)
                continue
            heappush(held, (chain.watermark, stamp, chain))
            if chain.wake <= w:
                self._due[key] = chain
            elif chain.wake < WAKE_AT_FLUSH:
                heappush(wake_heap, (chain.wake, stamp, key, chain))
        if added:
            # timsort merges the sorted backlog with this wave's sorted
            # per-chain runs in near-linear time; being stable, it keeps
            # the backlog ahead of this wave at equal LEs
            pending.sort(key=self._le)
        if len(held) + len(wake_heap) > 4 * len(active) + 64:
            self._rebuild_heaps()
        # a sleeping chain's watermark is frozen, so the least live heap
        # entry is the minimum over all non-idle chains
        while held and held[0][2].stamp != held[0][1]:
            heappop(held)

    def _rebuild_heaps(self) -> None:
        """Drop the stale entries lazy deletion left behind, so both
        heaps stay proportional to the active set, not the stream."""
        active = self._active
        self._held[:] = [(c.watermark, c.stamp, c) for c in active.values()]
        heapify(self._held)
        self._wake_heap[:] = [
            (c.wake, c.stamp, key, c)
            for key, c in active.items()
            if c.wake < WAKE_AT_FLUSH
        ]
        heapify(self._wake_heap)


def _activation_order(item) -> int:
    """Sort key for ``(key, chain)`` pairs: the chain's activation ordinal."""
    return item[1].ordinal


#: Plan nodes whose operators are pure per-event functions: nothing
#: happens on a watermark or at the flush, the watermark passes through
#: unchanged, and they never have a wake time.
_PURE_NODES = (WhereNode, ProjectNode, AlterLifetimeNode)

#: Plan nodes whose operators hold no mutable state: one instance can be
#: shared by every chain of a GroupApply instead of rebuilt per key.
_STATELESS_NODES = (*_PURE_NODES, UnionNode)

#: A flat chain's wake time while no node reports one: it is idle.
_IDLE = WAKE_AT_FLUSH + 1


class _FlatPlan:
    """A plan in the form a :class:`_FlatChain` runs: its inputs, then
    one step per operator node.

    The first positions are the plan's inputs: one per distinct source
    name at the top level (two ``SourceNode`` objects with one name, a
    multicast, share it), the group input in a GroupApply's sub-plan.
    After them, position ``i`` is the next operator node in topological
    order, so the root is last; an Exchange is the identity on one node
    and takes no position (what reads it reads its input). Each of
    ``steps`` is ``(i, a, b, future, keep, pure)``: node ``i`` reads
    position ``a`` (its one input, or its left; ``None`` for a unary
    node reading position ``i - 1``, whose output a chain carries over
    in locals), ``b`` is its right input's position (``None`` for a
    unary node), ``future`` what its watermark lags its operator's
    (:func:`_own_future`), ``keep`` says some node reads its output by
    position, and ``pure`` that its operator is a pure per-event
    function (``_PURE_NODES``). ``shared[k]`` is a pre-built operator
    for the ``k``-th node when it is stateless (a pure one, or a union),
    ``None`` where each chain needs its own instance (:meth:`make`): a
    stateful operator, a GroupApply's scheduler, or a deferred
    rewrite's buffer.

    ``top`` marks a flow's own plan: a GroupApply at its root releases
    rows, its schedulers get the flow's tracer, and its chain counts
    each position's events (and with that tracer on, times each step).
    """

    __slots__ = (
        "sources", "position", "nodes", "futures", "wave_events", "tracer",
        "top", "root_rows", "steps", "outs", "pinned", "events_in", "events_out",
        "busy", "shared", "subplans", "linear", "attach_in_place",
    )

    def __init__(self, order: List[PlanNode], wave_events: int,
                 tracer=NULL_TRACER, top: bool = False):
        #: a source's name (``None``: the group input) -> its position
        self.sources: Dict[Optional[str], int] = {}
        #: a plan node's id -> the position holding its output
        self.position: Dict[int, int] = {}
        for n in order:
            if not n.inputs:
                name = getattr(n, "name", None)
                self.position[n.node_id] = self.sources.setdefault(name, len(self.sources))
        first = len(self.sources)
        self.nodes: List[PlanNode] = []
        inputs = []
        for n in order:
            if not n.inputs:
                continue
            src = [self.position[c.node_id] for c in n.inputs]
            if isinstance(n, ExchangeNode):
                self.position[n.node_id] = src[0]
                continue
            self.position[n.node_id] = first + len(self.nodes)
            self.nodes.append(n)
            inputs.append(src)
        #: each node's future extent, ``None`` for a deferred rewrite
        self.futures = [n.lifetime_extent()[1] for n in self.nodes]
        #: a nested GroupApply's wave threshold, the outer one's
        self.wave_events = wave_events
        self.tracer = tracer
        self.top = top
        self.root_rows = top and bool(self.nodes) and self.nodes[-1] is order[-1]
        read = {
            j
            for i, src in enumerate(inputs, first)
            for j in src
            if len(src) == 2 or j != i - 1
        }
        self.steps = []
        for i, (n, src, future) in enumerate(zip(self.nodes, inputs, self.futures), first):
            a, b = src if len(src) == 2 else (src[0], None)
            if b is None and a == i - 1:
                a = None
            pure = future is not None and isinstance(n, _PURE_NODES)
            self.steps.append((i, a, b, _own_future(n, future), i in read, pure))
        size = first + len(self.nodes)
        #: scratch for the chain advancing now (one at a time), at the
        #: ``keep`` positions: the output, and the watermark were the
        #: input's arbitrarily far on and no state to change (an upper
        #: bound on what ``_FlatChain._watermark_at`` returns)
        self.outs: list = [None] * size
        self.pinned = [MAX_TIME] * size
        #: per position of a flow's plan: events in and out, and seconds
        #: spent when the tracer is on
        self.events_in = [0] * size
        self.events_out = [0] * size
        self.busy = [0.0] * size
        self.shared = [
            n.make_operator()
            if future is not None and isinstance(n, _STATELESS_NODES)
            else None
            for n, future in zip(self.nodes, self.futures)
        ]
        #: each GroupApply node's sub-plan, built once for all of its
        #: schedulers (one per key of an outer GroupApply)
        self.subplans = [
            _flat_plan(n, wave_events) if isinstance(n, GroupApplyNode) else None
            for n in self.nodes
        ]
        #: a straight pipeline: node ``i`` reads node ``i - 1`` alone
        self.linear = all(a is None and b is None for _, a, b, *_ in self.steps)
        #: a sub-plan's root builds each output payload for that event
        #: alone (``fresh_payloads``, which a nested GroupApply does not
        #: declare), so the key columns go in without a copy
        self.attach_in_place = (
            not top
            and bool(self.nodes)
            and not isinstance(self.nodes[-1], GroupApplyNode)
            and getattr(
                self.shared[-1] or self.make(len(self.nodes) - 1),
                "fresh_payloads",
                False,
            )
        )

    def make(self, k: int):
        """A fresh operator for the ``k``-th node: a
        :class:`GroupScheduler` for a GroupApply, else the node's own
        operator, in :class:`Deferred` when its future is unbounded."""
        node = self.nodes[k]
        if isinstance(node, GroupApplyNode):
            return GroupScheduler(
                node, self.subplans[k], self.wave_events, self.tracer,
                self.root_rows and k == len(self.nodes) - 1,
            )
        op = node.make_operator()
        return op if self.futures[k] is not None else Deferred(op)


def _flat_plan(node: GroupApplyNode, wave_events: int = 0) -> _FlatPlan:
    """``node``'s sub-plan as a :class:`_FlatPlan`."""
    return _FlatPlan(topological_order(node.subplan_root), wave_events)


def _keyed_aggregate(node: GroupApplyNode, flat: _FlatPlan) -> Optional[KeyedAggregate]:
    """One :class:`KeyedAggregate` sweep over all keys when ``node``'s
    sub-plan is a pipeline of stateless stages feeding one aggregate —
    the overwhelmingly common shape — else ``None`` (a chain per key)."""
    if not flat.nodes or not flat.linear:
        return None
    stages, shared = flat.nodes, flat.shared
    if not isinstance(stages[-1], AggregateNode) or not all(shared[:-1]):
        return None
    futures = [future for _, _, _, future, *_ in flat.steps]
    return KeyedAggregate(node.keys, stages, futures, shared)


class _FlatChain:
    """A :class:`_FlatPlan` running: a flow's plan, or one group's
    sub-plan (with that group's ``key_columns``).

    Each pass (:meth:`run`) visits every step in order over plain
    per-position lists. A unary step gets its input's fresh output and
    watermark (a step whose input did not move repeats an
    ``on_watermark`` call, which changes nothing; a pure per-event step
    gets only ``on_batch``, as its watermark just passes through), and a
    binary step its queued input through :func:`_deliver`, keeping
    per-position monotone watermark floors. A step flushes once, when
    its own input watermark reaches ``MAX_TIME``. A GroupApply is a
    unary step whose operator is its :class:`GroupScheduler`, a deferred
    rewrite one whose operator is its :class:`Deferred` buffer.
    """

    __slots__ = (
        "key_columns",
        "plan",
        "ops",
        "inputs",
        "w",
        "queued",
        "watermark",
        "idle_delta",
        "wake",
        "ordinal",
        "stamp",
    )

    def __init__(self, plan: _FlatPlan, key_columns: Optional[dict] = None):
        self.key_columns = key_columns
        self.plan = plan
        self.ops = [
            op if op is not None else plan.make(k) for k, op in enumerate(plan.shared)
        ]
        #: per input position: what was fed since the last pass
        self.inputs: List[list] = [[] for _ in plan.sources]
        #: per position (one per ``plan.outs`` slot): the node's
        #: watermark floor; an input position's is its source's watermark
        self.w = [MIN_TIME] * len(plan.outs)
        #: per position: a binary node's undelivered left and right input
        self.queued = [None] * len(plan.sources) + [
            None if b is None else ([], []) for _, _, b, *_ in plan.steps
        ]
        #: the root's watermark after the last pass
        self.watermark = MIN_TIME
        #: when not None the group's chain is quiescent: a watermark ``w``
        #: maps to output watermark ``w - idle_delta`` and emits nothing
        self.idle_delta: Optional[int] = None
        #: after a pass: ``None`` when no future (non-flush) watermark can
        #: emit anything; otherwise the chain emits nothing and keeps its
        #: watermark until the input watermark reaches this
        self.wake: Optional[int] = WAKE_ALWAYS
        self.ordinal = self.stamp = 0  # owned by the GroupApply's scheduler

    def feed(self, j: int, events: Iterable[Event], watermark: Optional[int] = None) -> None:
        """Queue LE-ordered ``events`` at input position ``j`` for the
        next pass; raise its watermark to ``watermark`` when given. A
        lone :class:`Batch` is queued as it is, so a reader that reads a
        source's columns (the keyed sweep) decodes none of its rows."""
        queued = self.inputs[j]
        if not queued and type(events) is Batch:
            self.inputs[j] = events
        else:
            if type(queued) is not list:
                queued = self.inputs[j] = list(queued)
            queued.extend(events)
        if watermark is not None and watermark > self.w[j]:
            self.w[j] = watermark

    def advance(self, watermark: int) -> List[Event]:
        """A group's pass at group watermark ``watermark``: its outputs,
        key columns attached.

        The key's input watermark (position 0) is the group's, or the
        last LE fed to this key (:meth:`GroupScheduler._feed`) when that
        is later: GroupApply input is LE-ordered, so nothing earlier can
        reach the key any more. It lets an aggregate's hold bind as soon
        as the key is fed ahead of the group — a hopping window's
        quantized LEs — instead of following the group's watermark and
        keeping the chain awake.
        """
        if self.idle_delta is not None:
            if watermark < MAX_TIME:
                self.watermark = watermark - self.idle_delta
                return []
            self.idle_delta = None
        if watermark > self.w[0]:
            self.w[0] = watermark
        out = self.run()
        if self.wake is None and watermark < MAX_TIME:
            self.idle_delta = watermark - self.watermark
        if not out:
            return []
        key_columns = self.key_columns
        if self.plan.attach_in_place:
            # same column order and values as the copy below
            for e in out:
                e.payload.update(key_columns)
            return out
        copies = []
        for e in out:
            payload = dict(e.payload)
            payload.update(key_columns)
            copies.append(e.with_payload(payload))
        return copies

    def run(self) -> list:
        """One pass over every step; returns the root's new output and
        leaves :attr:`watermark` and, but in a flow's own chain (see
        :meth:`wake_time`), :attr:`wake`."""
        plan = self.plan
        w = self.w
        outs, pinned = plan.outs, plan.pinned
        counted = plan.top
        events_in, events_out = plan.events_in, plan.events_out
        inputs = self.inputs
        for j, fed in enumerate(inputs):
            outs[j] = fed
            if fed:
                inputs[j] = []
                if counted:
                    events_out[j] += len(fed)
        # the previous position's output, watermark and pinned watermark
        j = len(inputs) - 1
        out, wo, po = outs[j], w[j], MAX_TIME
        wake = _IDLE
        timed = counted and plan.tracer.enabled
        if timed:
            t0 = _time.perf_counter()
        for (i, a, b, future, keep, pure), op in zip(plan.steps, self.ops):
            if b is None:
                if a is not None:
                    out, wo, po = outs[a], w[a], pinned[a]
                if counted:
                    events_in[i] += len(out)
                if pure:
                    # no state: nothing on a watermark or at the flush,
                    # the watermark passes through, never a wake time
                    if out:
                        out = op.on_batch(out)
                    ww = MAX_TIME if wo >= MAX_TIME else wo - future
                    wo = w[i]
                    if ww > wo:
                        w[i] = wo = ww
                    po -= future
                else:
                    out = op.on_batch(out) if out else []
                    if wo >= MAX_TIME:
                        if w[i] < MAX_TIME:
                            out.extend(op.on_flush())
                        w[i] = wo = MAX_TIME
                    else:
                        out.extend(op.on_watermark(wo))
                        ww = op.watermark_out(wo) - future
                        wo = w[i]
                        if ww > wo:
                            w[i] = wo = ww
                    t = None if counted else op.next_wake()
                    if t is None:  # idle: the identity
                        po -= future
                    else:
                        po = op.watermark_out(po) - future
                        if t < wake:
                            wake = t
            else:
                levs, revs = self.queued[i]
                levs.extend(outs[a])
                revs.extend(outs[b])
                rw = w[b]
                jw = w[a] if w[a] < rw else rw
                out = []
                li, ri = _deliver(op, levs, revs, jw, rw, out.extend)
                if counted:
                    events_in[i] += li + ri
                if jw >= MAX_TIME:
                    if w[i] < MAX_TIME:
                        out.extend(op.on_flush())
                    w[i] = wo = MAX_TIME
                else:
                    wo = w[i]
                    if jw > wo:
                        w[i] = wo = jw
                if li or ri:
                    del levs[:li], revs[:ri]
                if levs or revs:
                    # an undelivered head waits for the other side
                    wake = WAKE_ALWAYS
                po = pinned[a] if pinned[a] < pinned[b] else pinned[b]
            if po < wo:
                po = wo
            if keep:
                outs[i] = out
                pinned[i] = po
            if counted:
                events_out[i] += len(out)
                if timed:
                    # a step's busy time runs from the end of the one before
                    t1 = _time.perf_counter()
                    plan.busy[i] += t1 - t0
                    t0 = t1
        self.watermark = wo
        if not counted:
            self.wake = self._settled(wake, po)
        return out

    def wake_time(self) -> Optional[int]:
        """What :meth:`run` leaves in :attr:`wake`, worked out again from
        the state it left: only :meth:`Dataflow.next_wake` asks a flow's."""
        w, pinned = self.w, [MAX_TIME] * len(self.w)
        po, wake = MAX_TIME, _IDLE
        for (i, a, b, future, _, pure), op in zip(self.plan.steps, self.ops):
            if b is None:
                if a is not None:
                    po = pinned[a]
                t = None if pure else op.next_wake()
                if t is None:
                    po -= future
                else:
                    po = op.watermark_out(po) - future
                    wake = min(wake, t)
            else:
                if any(self.queued[i]):  # an undelivered head waits for the other side
                    wake = WAKE_ALWAYS
                po = min(pinned[a], pinned[b])
            po = pinned[i] = max(po, w[i])
        return self._settled(wake, po)

    def _settled(self, wake: int, po: int) -> Optional[int]:
        """A pass's wake time from the least step wake time ``wake`` and
        the root's pinned watermark ``po``."""
        wo = self.watermark
        if wake == _IDLE:
            return None
        if wake > WAKE_ALWAYS and po != wo and self._watermark_at(wake - 1) != wo:
            # the watermark still follows the input's (no hold binds
            # yet), so it is not frozen: stay awake until one does
            return WAKE_ALWAYS
        return wake

    def _watermark_at(self, t: int) -> int:
        """The root's watermark a pass with every input watermark raised
        to ``t`` would leave with no new input and no state changing."""
        w = self.w
        at = [t if t > x else x for x in w[: len(self.inputs)]]
        for (i, a, b, future, *_), op in zip(self.plan.steps, self.ops):
            if b is None:
                x = op.watermark_out(at[i - 1 if a is None else a]) - future
            else:
                x = at[a] if at[a] < at[b] else at[b]
            at.append(x if x > w[i] else w[i])
        return at[-1]


class Dataflow:
    """One CQ plan, instantiated as a :class:`_FlatChain` of live
    incremental operators.

    Args:
        root: the plan to execute (already a :class:`PlanNode`).
        allow_unstreamable: run unbounded-rewrite operators in deferred
            (buffer-until-flush) mode instead of rejecting the plan.
        group_wave_events: amortize GroupApply watermark waves — defer
            advancing the per-key chains until this many events have been
            fed to the node since its last wave (0, the streaming
            default, waves on every advance). Buffered group input stays
            bounded by the threshold; outputs are merely released later,
            never changed.
        tracer: when enabled, every step accumulates its busy seconds,
            so the batch driver's operator spans carry real durations.
    """

    def __init__(
        self,
        root: PlanNode,
        *,
        allow_unstreamable: bool = False,
        group_wave_events: int = 0,
        tracer=None,
    ):
        tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer = tracer
        self._order = topological_order(root)
        for node in self._order:
            if not node.inputs and not isinstance(node, SourceNode):
                raise RuntimeError(f"{type(node).__name__} outside a GroupApply")
            if node.lifetime_extent()[1] is None and not allow_unstreamable:
                raise StreamingUnsupported(
                    f"operator {node.describe()!r} has an unbounded "
                    "lifetime rewrite; it cannot run in streaming mode"
                )
        self._plan = _FlatPlan(self._order, group_wave_events, tracer, top=True)
        self._chain = _FlatChain(self._plan)
        #: a keyed GroupApply root emits its rows, and ``advance``
        #: releases them as one :class:`Batch` in this layout
        self._layout = getattr(self._chain.ops[-1], "layout", None) if self._plan.nodes else None
        self._flushed = False

    # -- introspection -------------------------------------------------------

    @property
    def output_watermark(self) -> int:
        return self._chain.w[-1]

    def source_names(self) -> List[str]:
        return list(self._plan.sources)

    def source_watermark(self, name: str) -> int:
        """The current watermark of a named source (KeyError if unknown)."""
        return self._chain.w[self._require(name)]

    def max_source_watermark(self) -> int:
        """The freshest promise any source has made (MIN_TIME when idle)."""
        return max(self._chain.w[: len(self._plan.sources)], default=MIN_TIME)

    def node_stats(self):
        """Yield ``(plan_node, events_in, events_out, busy_seconds)``;
        an Exchange, which takes no step, passes its input's output on."""
        plan = self._plan
        for node in self._order:
            i = plan.position[node.node_id]
            if isinstance(node, ExchangeNode):
                yield node, plan.events_out[i], plan.events_out[i], 0.0
            else:
                yield node, plan.events_in[i], plan.events_out[i], plan.busy[i]

    def next_wake(self) -> Optional[int]:
        """``None`` when no future (non-flush) watermark can emit
        anything; otherwise the least aligned source watermark at which
        ``advance`` could release output, change state or move
        :attr:`output_watermark` (``WAKE_ALWAYS``: any).

        Valid right after an ``advance`` pass. A quiescent flow's output
        watermark is a fixed (plan-constant) offset behind its sources'.
        No step sees a watermark ahead of the sources', so the least
        step wake time is early at worst — but it only says when output
        or state could move, not the watermark: where that still follows
        the sources' (no operator hold binds yet) the flow cannot sleep.
        """
        return self._chain.wake_time()

    @property
    def chain_advances(self) -> int:
        """How many times this flow's GroupApply steps advanced a
        per-key chain — the work a watermark wave does, as a count."""
        return sum(
            op.chain_advances for op in self._chain.ops if isinstance(op, GroupScheduler)
        )

    def keyed_sweeps(self) -> List[KeyedAggregate]:
        """The keyed sweeps of this flow's own GroupApply nodes."""
        return [op._keyed for op in self._chain.ops if getattr(op, "_keyed", None)]

    # -- driving -------------------------------------------------------------

    def feed(
        self,
        name: str,
        events: Iterable[Event],
        watermark: Optional[int] = None,
    ) -> None:
        """Append LE-ordered ``events`` to source ``name``.

        ``watermark`` (usually the last event's LE) promises no earlier
        event will arrive on this source; ``None`` leaves the watermark
        untouched (the slack reorder buffer uses that to backfill).
        """
        self._chain.feed(self._require(name), events, watermark)

    def set_watermarks(self, watermark: int) -> None:
        """Advance every source's watermark (an aligned CTI)."""
        w = self._chain.w
        for j in range(len(self._plan.sources)):
            if watermark > w[j]:
                w[j] = watermark

    def advance(self) -> Sequence[Event]:
        """Propagate what was fed since the last pass; return newly-final
        root outputs: a list, or a :class:`Batch` of layout values when
        the root is a keyed GroupApply (its events are built as they are
        read)."""
        released = self._chain.run() or []
        if self._layout is None:
            return released
        root = self._chain.ops[-1]
        batch, root.released = root.released or Batch.of_columns(self._layout, [], [], []), None
        self._plan.events_out[-1] += len(batch)  # the root's output, which its step kept
        return batch

    def flush(self) -> Sequence[Event]:
        """End of input everywhere: drain all remaining operator state."""
        if self._flushed:
            return []
        self._flushed = True
        self.set_watermarks(MAX_TIME)
        return self.advance()

    # -- internals -----------------------------------------------------------

    def _require(self, name: str) -> int:
        try:
            return self._plan.sources[name]
        except KeyError:
            raise KeyError(
                f"unknown source {name!r}; have {sorted(self._plan.sources)}"
            ) from None
