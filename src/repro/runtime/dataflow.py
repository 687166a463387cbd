"""The incremental operator runtime shared by batch and streaming drivers.

This module is the single execution engine for CQ plans. A
:class:`Dataflow` instantiates one live operator per plan node and
advances the whole DAG whenever new input or watermarks arrive:

* ``feed(source, events, watermark)`` appends time-ordered events to the
  named source leaves;
* ``advance()`` propagates them through every operator in topological
  order and returns the query outputs that are now *final* — no future
  input can change them (the CTI/watermark contract of Section III-C.1);
* ``flush()`` declares end-of-input and drains all remaining state.

Both execution modes are thin drivers over this one graph:
:class:`repro.temporal.Engine` feeds whole sources through in bounded
batches (memory proportional to window state plus one batch, not to the
partition), while :class:`repro.temporal.StreamingEngine` feeds one
event per push. They share the identical operator objects, multicast
and GroupApply keying, so batch ≡ streaming holds by construction.

Operators hold only active-window state. One ``advance`` pass visits the
nodes in topological order and hands each one the lists its inputs
emitted in that pass, read-only and shared by every consumer; a node's
own list lives only until the pass ends. The only input kept across
passes is a binary operator's undelivered left and right queue, so the
batch driver's memory is bounded by operator state plus one batch.

Plans containing an operator whose output timestamps may precede its
input unboundedly (a *custom* AlterLifetime) cannot run incrementally.
The streaming driver rejects them (:class:`StreamingUnsupported`); the
batch driver sets ``allow_unstreamable=True``, which runs exactly those
nodes in deferred mode — buffer until flush, then apply the same
operator object over the buffered input.
"""

from __future__ import annotations

import itertools
import time as _time
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..temporal.event import _LE, _ROW_LE, Event, LayoutRows
from ..temporal.operators.base import WAKE_ALWAYS, WAKE_AT_FLUSH, _deliver
from ..temporal.plan import (
    AggregateNode,
    AlterLifetimeNode,
    ExchangeNode,
    GroupApplyNode,
    GroupInputNode,
    PlanNode,
    ProjectNode,
    SourceNode,
    UnionNode,
    WhereNode,
    topological_order,
)
from ..temporal.time import MAX_TIME, MIN_TIME
from ..obs.trace import NULL_TRACER
from .keyed import KeyedAggregate

#: The reserved source name a GroupApply chain feeds its sub-plan under.
GROUP_SOURCE = "<group>"


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
    try:
        if len(keys) == 1:
            (k0,) = keys
            for event in fresh:
                per_key.setdefault((event.payload[k0],), []).append(event)
        elif len(keys) == 2:
            k0, k1 = keys
            for event in fresh:
                p = event.payload
                per_key.setdefault((p[k0], p[k1]), []).append(event)
        else:
            for event in fresh:
                p = event.payload
                per_key.setdefault(tuple(p[k] for k in keys), []).append(event)
    except KeyError as exc:
        raise KeyError(
            f"GroupApply key column {exc} missing from payload {event.payload!r}"
        ) from None
    return per_key


class _PlanMeta:
    """Shared, immutable per-plan metadata (memoized on the plan root).

    Every GroupApply chain instantiates a fresh operator graph over the
    *same* sub-plan, so the topological order and per-node future extents
    are computed once and reused by every chain.
    """

    __slots__ = ("order", "futures")

    def __init__(self, root: PlanNode):
        self.order = topological_order(root)
        self.futures: Dict[int, Optional[int]] = {
            n.node_id: n.lifetime_extent()[1] for n in self.order
        }

    @classmethod
    def of(cls, root: PlanNode) -> "_PlanMeta":
        meta = getattr(root, "_dataflow_meta", None)
        if meta is None:
            meta = cls(root)
            root._dataflow_meta = meta
        return meta


class _OpNode:
    """A live operator, the nodes it reads, and what it emitted in the
    current pass."""

    def __init__(
        self, plan_node: PlanNode, flow: "Dataflow", future: Optional[int]
    ):
        self.plan_node = plan_node
        self.flow = flow
        self.kids: List[_OpNode] = []  # the nodes it reads, set by the flow
        #: this pass's output (a source's: what was fed since the last
        #: pass), read-only to every consumer; dropped when the pass ends
        self.out: Sequence = ()
        #: the output or the watermark moved since the last pass ended
        self.moved = False
        self.watermark: int = MIN_TIME
        self.flushed = False
        self.events_in = self.events_out = 0
        self.busy_seconds = 0.0
        self._operator = None
        self._keyed = None
        self.deferred = False
        self._future = 0
        if isinstance(plan_node, GroupApplyNode):
            self._groups: Dict[Tuple, _GroupChain] = {}
            #: the non-idle chains, in activation order (the order the
            #: cross-group merge appends their outputs in)
            self._active: Dict[Tuple, _GroupChain] = {}
            self._ordinals = itertools.count()
            #: wake-time scheduling of the driver-local wave: chains
            #: that must advance at the next wave whatever its watermark
            #: (fed, just activated, or unable to sleep), a min-heap of
            #: ``(wake, stamp, key, chain)`` for the sleeping rest, and
            #: a min-heap of ``(watermark, stamp, chain)`` over every
            #: non-idle chain for the group watermark. Both heaps delete
            #: lazily: an entry is live iff its stamp is still the
            #: chain's, i.e. the chain has not advanced since the push.
            self._due: Dict[Tuple, _GroupChain] = {}
            self._wake_heap: List[tuple] = []
            self._held: List[tuple] = []
            #: chain advances merged by this node; the wave also draws
            #: its heap stamps from it
            self.chain_advances = 0
            #: merged chain outputs not yet released, LE-sorted (stable)
            self._pending: list = []
            self._fed_since_wave = 0
            self._idle_delta = -1  # < 0: no chain has gone idle yet
            #: the sub-plan's flat form, ``None`` when every chain is a
            #: nested flow (:class:`_GroupChain`)
            self._flat = _flat_plan(plan_node)
            #: one sweep over every key instead of a chain per key, for a
            #: sub-plan of stateless stages feeding an aggregate; its
            #: per-key states stand in for chains in the scheduler below
            self._keyed = _keyed_aggregate(plan_node, self._flat)
            #: the keyed sweep emits rows (``KeyedAggregate.layout``),
            #: merged by ``_le`` as chain events are, and made events as
            #: they are emitted: except at the flow's root, which sets
            #: this, emits the rows, and releases them whole
            self.emits_rows = False
            self._le = _LE if self._keyed is None else _ROW_LE
        elif not isinstance(plan_node, (SourceNode, GroupInputNode, ExchangeNode)):
            self._operator = plan_node.make_operator()
            if len(plan_node.inputs) == 2:
                #: a binary node's undelivered left and right input
                self.queued: Tuple[List[Event], List[Event]] = ([], [])
        if future is None:
            if not flow.allow_unstreamable:
                raise StreamingUnsupported(
                    f"operator {plan_node.describe()!r} has an unbounded "
                    "lifetime rewrite; it cannot run in streaming mode"
                )
            # GroupApply chains defer inside their sub-flow; direct
            # operators buffer here and apply at flush.
            self.deferred = self._operator is not None
            self._store: List[Event] = []
        else:
            self._future = future

    def next_wake(self) -> Optional[int]:
        """``None`` when a future (non-flush) watermark can emit nothing
        here and shifts this node's watermark by exactly the watermark
        delta; otherwise the least input watermark at which ``advance``
        could emit or change state (``WAKE_ALWAYS``: any).

        Only meaningful right after an ``advance`` pass."""
        if self.deferred:
            return None if self.flushed else WAKE_AT_FLUSH
        if isinstance(self.plan_node, GroupApplyNode):
            if self._due or self._fed_since_wave:
                return WAKE_ALWAYS
            if not self._active:
                return WAKE_ALWAYS if self._pending else None
            if not self._wake_heap:
                return WAKE_AT_FLUSH  # every chain sleeps until the flush
            # a stale top only makes this early. Backlog in
            # ``_pending`` is released by the group watermark, which
            # ``watermark_at`` accounts for
            return self._wake_heap[0][0]
        if self._operator is None:
            # a source's watermark tracks the driver's exactly, and an
            # Exchange is a pure passthrough
            return None
        if len(self.kids) == 2:
            # binary operators only emit on event delivery, never on a
            # bare watermark (synopsis contents don't block the
            # watermark); an undelivered head waits for the other side
            return WAKE_ALWAYS if any(self.queued) else None
        return self._operator.next_wake()

    def watermark_at(self, inputs: List[int]) -> int:
        """This node's watermark if its inputs' watermarks rose to
        ``inputs`` with no new events and no state change — what
        ``advance`` would leave behind, computed without running it."""
        node = self.plan_node
        if self.deferred:
            return self.watermark
        if isinstance(node, GroupApplyNode):
            w = inputs[0]
            if self._idle_delta >= 0:
                w -= self._idle_delta
            if self._held and self._held[0][0] < w:
                w = self._held[0][0]
        elif self._operator is not None and len(inputs) == 1:
            w = self._operator.watermark_out(inputs[0]) - self._future
        else:
            w = min(inputs)
        return max(self.watermark, w)

    # -- per-kind advance ----------------------------------------------------

    def advance(self) -> None:
        """Consume this pass's input, set ``out`` to what is now final."""
        node = self.plan_node
        if isinstance(node, ExchangeNode):
            # Logical repartitioning is the identity on a single node.
            (kid,) = self.kids
            self.events_in += len(kid.out)
            self.out = kid.out
            self.watermark = kid.watermark
        elif isinstance(node, GroupApplyNode):
            self._advance_group_apply()
        elif self.deferred:
            self._advance_deferred()
        elif len(self.kids) == 1:
            self._advance_unary()
        else:
            self._advance_binary()

    def _advance_unary(self) -> None:
        (kid,) = self.kids
        op = self._operator
        fresh, w = kid.out, kid.watermark
        self.events_in += len(fresh)
        out = op.on_batch(fresh) if fresh else []
        if w >= MAX_TIME and not self.flushed:
            out.extend(op.on_flush())
            self.flushed = True
            self.watermark = MAX_TIME
        else:
            out.extend(op.on_watermark(w))
            self.watermark = max(self.watermark, op.watermark_out(w) - self._future)
        self.out = out

    def _advance_binary(self) -> None:
        left, right = self.kids
        levs, revs = self.queued
        levs.extend(left.out)
        revs.extend(right.out)
        op = self._operator
        out: List[Event] = []
        rw = right.watermark
        w = min(left.watermark, rw)
        li, ri = _deliver(op, levs, revs, w, rw, out.extend)
        if w >= MAX_TIME and not self.flushed:
            out.extend(op.on_flush())
            self.flushed = True
            self.watermark = MAX_TIME
        elif self.watermark < w:
            self.watermark = w
        self.events_in += li + ri
        if li or ri:
            del levs[:li], revs[:ri]
        self.out = out

    def _advance_deferred(self) -> None:
        """Unbounded-rewrite fallback: buffer everything, apply at flush.

        The *same* operator object executes — via its batch ``apply``
        helper — so the plan still has exactly one implementation per
        operator; only the scheduling differs. The node's watermark
        stays at the beginning of time until flush, which makes every
        downstream operator hold its own output back correctly.
        """
        # only a unary node defers: no binary plan node has an unbounded
        # future extent
        (kid,) = self.kids
        self.events_in += len(kid.out)
        self._store.extend(kid.out)
        if kid.watermark >= MAX_TIME and not self.flushed:
            self.out = self._operator.apply(self._store)
            self._store = []
            self.flushed = True
            self.watermark = MAX_TIME

    def _advance_group_apply(self) -> None:
        (kid,) = self.kids
        fresh, w = kid.out, kid.watermark
        if fresh:
            self.events_in += len(fresh)
            self._fed_since_wave += len(fresh)
            if self._keyed is not None:
                self._keyed.feed(self, fresh, w)
            else:
                self._feed_local_chains(
                    _batch_per_key(fresh, self.plan_node.keys)
                )
        if w >= MAX_TIME:
            self._run_group_flush(w)
            return
        # The batch driver amortizes watermark waves: buffered group
        # input stays bounded by the wave threshold while each chain is
        # advanced once per threshold's worth of events, not per chunk.
        threshold = self.flow.group_wave_events
        if threshold:
            # a wave advances every chain fed since the last one, so it
            # only pays for itself once a comparable volume of fresh
            # input has accumulated; buffered input stays bounded by
            # O(threshold + keys), both independent of stream length
            if self._fed_since_wave < threshold + 2 * len(self._groups):
                return
        self._fed_since_wave = 0
        self._run_group_wave(w)

    def _feed_local_chains(self, per_key) -> None:
        """Buffer one batch of per-key events into driver-local chains."""
        node: GroupApplyNode = self.plan_node
        flat = self._flat
        for key, events in per_key.items():
            chain = self._groups.get(key)
            if chain is None:
                if flat is not None:
                    chain = _FlatChain(node, key, flat)
                else:
                    chain = _GroupChain(node, key, self.flow)
                self._groups[key] = chain
            chain.buffer(events)
            self._activate(key, chain)

    def _activate(self, key, chain) -> None:
        """Enter ``chain`` into the active set (the only way in).

        A chain gets its activation ordinal on entry — re-feeding an
        already active chain keeps its place, exactly like re-assigning
        a dict key — and is due at the next driver-local wave, so no
        chain is ever active without the wave having registered it."""
        if key not in self._active:
            chain.ordinal = next(self._ordinals)
            self._active[key] = chain
        self._due[key] = chain

    def _emit(self, released: list) -> None:
        """Emit merged outputs: a keyed sweep's rows become events here,
        except at a flow's root."""
        if self._keyed is not None and not self.emits_rows:
            released = list(LayoutRows(self._keyed.layout, released))
        self.out = released

    def _run_group_flush(self, w: int) -> None:
        """End of input: every chain flushes for real."""
        pending = self._pending
        keyed = self._keyed
        self.chain_advances += len(self._groups)
        for chain in self._groups.values():
            outs = chain.advance(w) if keyed is None else keyed.advance(chain, w)
            if outs:
                pending.extend(outs)
        # a stable LE sort == the cross-group LE merge: ties keep chain
        # order, so events never compare
        pending.sort(key=self._le)
        self._emit(pending)
        self._pending = []
        self.flushed = True
        self.watermark = MAX_TIME

    def _run_group_wave(self, w: int) -> None:
        """One watermark wave over the driver-local chains.

        Advances only the chains that are due — fed or activated since
        the last wave, or unable to sleep — plus those whose wake time
        ``w`` has reached; a sleeping chain would emit nothing and keep
        its watermark, so skipping it is unobservable. Quiescent chains
        track the watermark arithmetically (their delta is a plan
        constant, so one representative bound covers all of them). The
        cost is O(fed + due), not O(active chains).
        """
        pending = self._pending
        active = self._active
        wake_heap = self._wake_heap
        held = self._held
        due, self._due = self._due, {}
        while wake_heap and wake_heap[0][0] <= w:
            _, stamp, key, chain = heappop(wake_heap)
            if chain.stamp == stamp:
                due[key] = chain
        if self.flow.tracer.enabled:
            # wave width is a pure function of the data and the wave
            # schedule
            self.flow.tracer.metrics.histogram("dataflow.wave_width").observe(
                len(active)
            )
        # activation order is the order a walk over the whole active set
        # would reach these chains in, so their outputs join the merge in
        # the same relative order — and skipped chains add nothing
        added = False
        keyed = self._keyed
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
        group_w = w if self._idle_delta < 0 else w - self._idle_delta
        if held and held[0][0] < group_w:
            group_w = held[0][0]
        idx = _before(pending, group_w, self._le)
        if idx:
            self._emit(pending[:idx])
            del pending[:idx]
        self.watermark = max(self.watermark, group_w)

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

#: Sub-plan nodes with no operator for a flat chain to drive.
_NOT_FLAT = (SourceNode, GroupInputNode, GroupApplyNode, ExchangeNode)


class _FlatPlan:
    """A GroupApply sub-plan of bounded unary and binary operators over the
    group input, in the form every :class:`_FlatChain` of the node reads.

    Position 0 is the group input and position ``i`` the ``i``-th
    operator node in topological order, so the root is last.
    ``steps[i - 1]`` is ``(i, a, b, future, keep, pure)``: node ``i``
    reads position ``a`` (its one input, or its left; ``None`` for a
    unary node reading position ``i - 1``, whose output a chain carries
    over in locals), ``b`` is its right input's position (``None`` for a
    unary node), ``future`` its future extent, ``keep`` says
    some node reads its output by position, and ``pure`` that its
    operator is a pure per-event function (``_PURE_NODES``).
    ``shared[i - 1]`` is a pre-built operator for a stateless node (a
    pure one, or a union), ``None`` where each key needs its own
    instance.
    """

    __slots__ = ("nodes", "steps", "shared", "linear", "attach_in_place", "outs", "pinned")

    def __init__(self, order: List[PlanNode], futures: Dict[int, int]):
        position = {n.node_id: i for i, n in enumerate(order)}
        self.nodes = order[1:]
        inputs = [[position[c.node_id] for c in n.inputs] for n in self.nodes]
        read = {
            j
            for i, src in enumerate(inputs, 1)
            for j in src
            if len(src) == 2 or j != i - 1
        }
        self.steps = []
        for i, (n, src) in enumerate(zip(self.nodes, inputs), 1):
            a, b = src if len(src) == 2 else (src[0], None)
            if b is None and a == i - 1:
                a = None
            self.steps.append(
                (i, a, b, futures[n.node_id], i in read, isinstance(n, _PURE_NODES))
            )
        #: scratch for the chain advancing now (one at a time), at the
        #: ``keep`` positions: the output, and the watermark were the
        #: input's arbitrarily far on and no state to change (an upper
        #: bound on what ``_FlatChain._watermark_at`` returns)
        self.outs: list = [None] * len(order)
        self.pinned = [MAX_TIME] * len(order)
        self.shared = [
            n.make_operator() if isinstance(n, _STATELESS_NODES) else None
            for n in self.nodes
        ]
        #: a straight pipeline: node ``i`` reads node ``i - 1`` alone
        self.linear = all(a is None and b is None for _, a, b, *_ in self.steps)
        #: the root builds each output payload for that event alone
        #: (``fresh_payloads``), so the key columns go in without a copy
        self.attach_in_place = bool(self.nodes) and getattr(
            self.shared[-1] or self.nodes[-1].make_operator(),
            "fresh_payloads",
            False,
        )


def _flat_plan(node: GroupApplyNode) -> Optional[_FlatPlan]:
    """``node``'s sub-plan as a :class:`_FlatPlan`, or ``None`` when it
    holds a nested GroupApply, an Exchange or an unbounded (deferred)
    rewrite: those keep the general :class:`_GroupChain` (as does a
    sub-plan reading an external source, which the nested flow rejects).

    A straight pipeline of stateless stages feeding an aggregate — the
    overwhelmingly common shape — goes further: one
    :class:`KeyedAggregate` sweep over all keys (:func:`_keyed_aggregate`).
    """
    meta = _PlanMeta.of(node.subplan_root)
    order = meta.order
    if not order or order[0] is not node.group_input:
        return None
    for n in order[1:]:
        if (
            isinstance(n, _NOT_FLAT)
            or len(n.inputs) > 2
            or meta.futures[n.node_id] is None
        ):
            return None
    return _FlatPlan(order, meta.futures)


def _keyed_aggregate(node: GroupApplyNode, flat) -> Optional[KeyedAggregate]:
    """The keyed sweep for ``node`` when its flat sub-plan is a pipeline of
    stateless stages feeding one aggregate, else ``None`` (one chain per
    key)."""
    if flat is None or not flat.nodes or not flat.linear:
        return None
    stages, shared = flat.nodes, flat.shared
    if not isinstance(stages[-1], AggregateNode) or not all(shared[:-1]):
        return None
    futures = [future for _, _, _, future, *_ in flat.steps]
    return KeyedAggregate(node.keys, stages, futures, shared)


class _FlatChain:
    """One group's sub-plan, driven flat: the operators of a
    :class:`_FlatPlan` in topological order over plain per-node lists.

    It makes the calls the nested flow of a :class:`_GroupChain` would,
    in the same order, and leaves the same watermark, wake time and idle
    delta — without a per-key Dataflow or a graph walk. Each advance
    hands a unary node its input's fresh output and watermark (where the
    nested flow skips a node whose input did not move, this repeats an
    ``on_watermark`` call, which changes nothing; a pure per-event node
    gets only ``on_batch``, as its watermark just passes through), and a
    binary node its queued input through
    :func:`_deliver`, keeping per-node monotone watermark floors. With
    millions of group keys this is what keeps chain construction and
    watermark waves cheap.

    The key's input watermark (position 0) is the group's, or the last LE
    fed to this key when that is later: GroupApply input is LE-ordered,
    so nothing earlier can reach the key any more. It lets an aggregate's
    hold bind as soon as the key is fed ahead of the group — a hopping
    window's quantized LEs — instead of following the group's watermark
    and keeping the chain awake.
    """

    __slots__ = (
        "key_columns",
        "plan",
        "ops",
        "w",
        "queued",
        "watermark",
        "idle_delta",
        "wake",
        "ordinal",
        "stamp",
        "_buf",
    )

    def __init__(self, node: GroupApplyNode, key: Tuple, plan: _FlatPlan):
        self.key_columns = dict(zip(node.keys, key))
        self.plan = plan
        self.ops = [
            op if op is not None else n.make_operator()
            for n, op in zip(plan.nodes, plan.shared)
        ]
        #: per position (one per ``plan.outs`` slot): the node's
        #: watermark floor; position 0 is the key's input watermark
        self.w = [MIN_TIME] * len(plan.outs)
        #: per position: a binary node's undelivered left and right input
        self.queued = [None] + [
            None if b is None else ([], []) for _, _, b, *_ in plan.steps
        ]
        self.watermark = MIN_TIME
        #: when not None the chain is quiescent: a watermark ``w`` maps to
        #: output watermark ``w - idle_delta`` and emits nothing
        self.idle_delta: Optional[int] = None
        #: while not idle: the chain emits nothing and keeps its
        #: watermark until the input watermark reaches this
        self.wake = WAKE_ALWAYS
        self.ordinal = self.stamp = 0  # owned by the GroupApply node
        self._buf: List[Event] = []

    def buffer(self, events: List[Event]) -> None:
        """Queue LE-ordered ``events``; the next ``advance`` delivers them."""
        self._buf.extend(events)
        if events[-1].le > self.w[0]:
            self.w[0] = events[-1].le
        self.idle_delta = None

    def advance(self, watermark: int) -> List[Event]:
        flush = watermark >= MAX_TIME
        if flush:
            self.idle_delta = None
        elif self.idle_delta is not None:
            self.watermark = watermark - self.idle_delta
            return []
        w = self.w
        if watermark > w[0]:
            w[0] = watermark
        plan = self.plan
        # the previous position's output, watermark and pinned watermark
        out, wo, po = self._buf, w[0], MAX_TIME
        plan.outs[0] = out
        if out:
            self._buf = []
        wake = _IDLE
        for (i, a, b, future, keep, pure), op in zip(plan.steps, self.ops):
            if b is None:
                if a is not None:
                    out, wo, po = plan.outs[a], w[a], plan.pinned[a]
                if pure:
                    # no state: nothing on a watermark or at the flush,
                    # the watermark passes through, never a wake time
                    if out:
                        out = op.on_batch(out)
                    ww = MAX_TIME if flush else wo - future
                    wo = w[i]
                    if ww > wo:
                        w[i] = wo = ww
                    po -= future
                else:
                    out = op.on_batch(out) if out else []
                    if flush:
                        out.extend(op.on_flush())
                        w[i] = wo = MAX_TIME
                    else:
                        out.extend(op.on_watermark(wo))
                        ww = op.watermark_out(wo) - future
                        wo = w[i]
                        if ww > wo:
                            w[i] = wo = ww
                    t = op.next_wake()
                    if t is None:  # idle: the identity
                        po -= future
                    else:
                        po = op.watermark_out(po) - future
                        if t < wake:
                            wake = t
            else:
                outs, pinned = plan.outs, plan.pinned
                levs, revs = self.queued[i]
                levs.extend(outs[a])
                revs.extend(outs[b])
                rw = w[b]
                jw = w[a] if w[a] < rw else rw
                out = []
                li, ri = _deliver(op, levs, revs, jw, rw, out.extend)
                if flush:
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
                plan.outs[i] = out
                plan.pinned[i] = po
        if flush:
            self.watermark = MAX_TIME
        else:
            self.watermark = wo
            if wake == _IDLE:
                self.idle_delta = watermark - wo
                wake = None
            elif (
                wake > WAKE_ALWAYS
                and po != wo
                and wake - 1 > w[0]
                and self._watermark_at(wake - 1) != wo
            ):
                # the watermark still follows the input's (no hold binds
                # yet), so it is not frozen: stay awake until one does
                wake = WAKE_ALWAYS
            self.wake = wake
        if not out:
            return []
        key_columns = self.key_columns
        if plan.attach_in_place:
            # same column order and values as the copy below
            for e in out:
                e.payload.update(key_columns)
            return out
        return _with_key(out, key_columns)

    def _watermark_at(self, t: int) -> int:
        """The watermark an advance at input watermark ``t`` (above the
        key's) would leave with no new input and no state changing."""
        w = self.w
        at = [t]
        for (i, a, b, future, *_), op in zip(self.plan.steps, self.ops):
            if b is None:
                x = op.watermark_out(at[i - 1 if a is None else a]) - future
            else:
                x = at[a] if at[a] < at[b] else at[b]
            at.append(x if x > w[i] else w[i])
        return at[-1]


def _with_key(events: Iterable[Event], key_columns: dict) -> List[Event]:
    """``events`` with the group's key columns added to a copy of each
    payload."""
    out = []
    for e in events:
        payload = dict(e.payload)
        payload.update(key_columns)
        out.append(e.with_payload(payload))
    return out


class _GroupChain:
    """One group's live sub-plan inside a GroupApply node.

    Each chain is a nested :class:`Dataflow` over the sub-plan, with the
    group-input leaf registered as its only source. Key columns are
    re-attached to every output payload; ``allow_unstreamable`` is
    inherited, so a batch run of a GroupApply whose sub-plan contains a
    custom AlterLifetime defers inside the chain.
    """

    __slots__ = (
        "key_columns",
        "sub",
        "watermark",
        "idle_delta",
        "wake",
        "ordinal",
        "stamp",
    )

    def __init__(self, node: GroupApplyNode, key: Tuple, flow: "Dataflow"):
        self.key_columns = dict(zip(node.keys, key))
        self.sub = Dataflow(
            node.subplan_root,
            group_input=node.group_input,
            allow_unstreamable=flow.allow_unstreamable,
            group_wave_events=flow.group_wave_events,
        )
        self.watermark = MIN_TIME
        #: when not None the chain is quiescent: a watermark ``w`` maps to
        #: output watermark ``w - idle_delta`` (a plan constant) and emits
        #: nothing, so the sub-flow need not be touched at all
        self.idle_delta: Optional[int] = None
        #: while not idle: the sub-flow emits nothing and keeps its
        #: output watermark until the input watermark reaches this
        self.wake = WAKE_ALWAYS
        self.ordinal = self.stamp = 0  # owned by the GroupApply node

    def buffer(self, events: List[Event]) -> None:
        """Queue LE-ordered ``events``; the next ``advance`` delivers them."""
        self.sub.feed(GROUP_SOURCE, events, events[-1].le)
        self.idle_delta = None

    def advance(self, watermark: int) -> List[Event]:
        if watermark >= MAX_TIME:
            self.idle_delta = None
            outs = _with_key(self.sub.flush(), self.key_columns)
            self.watermark = MAX_TIME
            return outs
        if self.idle_delta is not None:
            self.watermark = watermark - self.idle_delta
            return []
        self.sub.set_watermarks(watermark)
        outs = _with_key(self.sub.advance(), self.key_columns)
        self.watermark = self.sub.output_watermark
        self.wake = self.sub.next_wake()
        if self.wake is None:
            self.idle_delta = watermark - self.watermark
        return outs


class Dataflow:
    """One CQ plan instantiated as a graph of live incremental operators.

    Args:
        root: the plan to execute (already a :class:`PlanNode`).
        allow_unstreamable: run unbounded-rewrite operators in deferred
            (buffer-until-flush) mode instead of rejecting the plan.
        group_input: inside a GroupApply chain, the group-input leaf to
            register under :data:`GROUP_SOURCE`.
        group_wave_events: amortize GroupApply watermark waves — defer
            advancing the per-key chains until this many events have been
            fed to the node since its last wave (0, the streaming
            default, waves on every advance). Buffered group input stays
            bounded by the threshold; outputs are merely released later,
            never changed.
        tracer: when enabled, every node accumulates its busy seconds,
            so the batch driver's operator spans carry real durations.
    """

    def __init__(
        self,
        root: PlanNode,
        *,
        allow_unstreamable: bool = False,
        group_input: Optional[GroupInputNode] = None,
        group_wave_events: int = 0,
        tracer=None,
    ):
        self.allow_unstreamable = allow_unstreamable
        self.group_wave_events = group_wave_events
        self.tracer = tracer if tracer is not None else NULL_TRACER
        meta = _PlanMeta.of(root)
        nodes: Dict[int, _OpNode] = {}
        self._op_nodes: List[_OpNode] = []  # in topological order
        # several SourceNode objects may share one name (a multicast
        # written as two Query.source("x") calls); all of them are fed
        self._sources: Dict[str, List[_OpNode]] = {}
        for plan_node in meta.order:
            node = _OpNode(plan_node, self, meta.futures[plan_node.node_id])
            node.kids = [nodes[c.node_id] for c in plan_node.inputs]
            nodes[plan_node.node_id] = node
            self._op_nodes.append(node)
            if isinstance(plan_node, SourceNode):
                if group_input is not None:
                    raise RuntimeError(
                        "GroupApply sub-plans cannot reference external sources"
                    )
                self._sources.setdefault(plan_node.name, []).append(node)
            elif isinstance(plan_node, GroupInputNode):
                if group_input is None or plan_node is not group_input:
                    raise RuntimeError(
                        "GroupInputNode reached outside a GroupApply sub-plan"
                    )
                self._sources.setdefault(GROUP_SOURCE, []).append(node)
        self._root = nodes[root.node_id]
        if self._root._keyed is not None:
            # a keyed GroupApply root emits its rows, and ``advance``
            # releases them as one ``LayoutRows``
            self._root.emits_rows = True
        self._flushed = False

    # -- introspection -------------------------------------------------------

    @property
    def output_watermark(self) -> int:
        return self._root.watermark

    def source_names(self) -> List[str]:
        return list(self._sources)

    def has_source(self, name: str) -> bool:
        return name in self._sources

    def source_watermark(self, name: str) -> int:
        """The current watermark of a named source (KeyError if unknown)."""
        return max(n.watermark for n in self._require(name))

    def max_source_watermark(self) -> int:
        """The freshest promise any source has made (MIN_TIME when idle)."""
        return max(
            (n.watermark for nodes in self._sources.values() for n in nodes),
            default=MIN_TIME,
        )

    def node_stats(self):
        """Yield ``(plan_node, events_in, events_out, busy_seconds)``."""
        for n in self._op_nodes:
            yield n.plan_node, n.events_in, n.events_out, n.busy_seconds

    def next_wake(self) -> Optional[int]:
        """``None`` when no future (non-flush) watermark can emit
        anything; otherwise the least aligned source watermark at which
        ``advance`` could release output, change state or move
        :attr:`output_watermark` (``WAKE_ALWAYS``: any).

        Valid right after an ``advance`` pass. A quiescent flow's output
        watermark is a fixed (plan-constant) offset behind its sources'.
        No node sees a watermark ahead of the sources', so the least
        node wake time is early at worst — but it only says when output
        or state could move, not the watermark: where that still follows
        the sources' (no operator hold binds yet) the flow cannot sleep.
        """
        wake = None
        for node in self._op_nodes:
            t = node.next_wake()
            if t is not None and (wake is None or t < wake):
                wake = t
        if (
            wake is not None
            and wake > WAKE_ALWAYS
            and self._watermark_at(wake - 1) != self._root.watermark
        ):
            return WAKE_ALWAYS
        return wake

    @property
    def chain_advances(self) -> int:
        """How many times this flow's GroupApply nodes advanced a
        per-key chain — the work a watermark wave does, as a count."""
        return sum(
            node.chain_advances
            for node in self._op_nodes
            if isinstance(node.plan_node, GroupApplyNode)
        )

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
        nodes = self._require(name)
        if not isinstance(events, list):
            # every same-named source reads the whole feed, so a
            # one-shot iterable is materialised once, not drained by
            # the first node
            events = list(events)
        for node in nodes:
            if events:
                if node.out:
                    node.out.extend(events)
                else:
                    node.out = events[:]
                node.events_out += len(events)
                node.moved = True
            if watermark is not None and watermark > node.watermark:
                node.watermark = watermark
                node.moved = True

    def set_watermarks(self, watermark: int) -> None:
        """Advance every source's watermark (an aligned CTI)."""
        for nodes in self._sources.values():
            for node in nodes:
                if watermark > node.watermark:
                    node.watermark = watermark
                    node.moved = True

    def advance(self) -> Sequence[Event]:
        """Propagate what was fed since the last pass; return newly-final
        root outputs: a list, or a :class:`LayoutRows` when the root is a keyed GroupApply
        (its events are built as they are read)."""
        timed = self.tracer.enabled
        for node in self._op_nodes:
            if not any(kid.moved for kid in node.kids):
                continue  # a source, or nothing new: a no-op to advance
            w = node.watermark
            if timed:
                t0 = _time.perf_counter()
                node.advance()
                node.busy_seconds += _time.perf_counter() - t0
            else:
                node.advance()
            if node.out or node.watermark != w:
                node.events_out += len(node.out)
                node.moved = True
        released = self._root.out or []
        for node in self._op_nodes:
            if node.moved:
                node.moved = False
                node.out = ()
        keyed = self._root._keyed
        return released if keyed is None else LayoutRows(keyed.layout, released)

    def flush(self) -> Sequence[Event]:
        """End of input everywhere: drain all remaining operator state."""
        if self._flushed:
            return []
        self._flushed = True
        self.set_watermarks(MAX_TIME)
        return self.advance()

    def close(self) -> None:
        """Release what the flow holds; it cannot be driven afterwards.

        Severs the graph's reference cycles: every node points back at
        its flow, and every :class:`_GroupChain` owns a nested flow wired
        the same way. With those back-references gone the whole graph is
        freed by refcount when the driver drops the flow — the batch
        drivers run with the cyclic collector paused
        (:meth:`RunContext.quiet`). Idempotent, and safe to call
        mid-stream (after an error, say).
        """
        for node in self._op_nodes:
            if isinstance(node.plan_node, GroupApplyNode) and node._flat is None:
                # no flat form: every chain is a _GroupChain
                for chain in node._groups.values():
                    chain.sub.close()
            node.flow = None

    # -- internals -----------------------------------------------------------

    def _require(self, name: str) -> List[_OpNode]:
        try:
            return self._sources[name]
        except KeyError:
            raise KeyError(
                f"unknown source {name!r}; have {sorted(self._sources)}"
            ) from None

    def _watermark_at(self, w: int) -> int:
        """The output watermark ``set_watermarks(w)`` + ``advance()``
        would leave with no new input and no operator state changing,
        computed without running either."""
        at: Dict[_OpNode, int] = {}
        for node in self._op_nodes:
            if node.kids:
                at[node] = node.watermark_at([at[c] for c in node.kids])
            else:
                at[node] = max(node.watermark, w)
        return at[self._root]
