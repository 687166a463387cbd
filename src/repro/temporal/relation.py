"""Reference temporal-relation semantics.

A stream can be viewed as a *changing temporal relation* (Section II-A.1):
at every instant ``t`` the relation contains the payloads of all events
whose lifetimes contain ``t`` (a bag — duplicates count). Operator
semantics are defined on this view and are independent of physical
processing order.

This module provides:

* :func:`normalize` — a canonical form for a bag of events, so two event
  sets can be compared *as temporal relations* (ignoring how intervals
  happen to be split or coalesced);
* :func:`snapshot` / :func:`changepoints` — brute-force inspection of the
  relation at any instant;
* brute-force reference operators (``ref_*``), the ground truth
  property-based tests verify the streaming operators against, written
  from the definitions: nothing here imports an operator module;
* :func:`ref_plan` — a whole-plan interpreter over materialised lists,
  the reference ``Engine.run``, ``StreamingEngine`` and ``TiMR.run`` are
  tested against. It shares no scheduling code with the runtime.

Everything here favours obviousness over speed; the streaming engine in
``engine.py`` is the fast path.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .event import Event
from .plan import (
    AggregateNode,
    AlterLifetimeNode,
    AntiSemiJoinNode,
    CountWindowNode,
    ExchangeNode,
    GroupApplyNode,
    GroupInputNode,
    PlanNode,
    ProjectNode,
    ScanUDONode,
    SessionWindowNode,
    SnapshotUDONode,
    SourceNode,
    TemporalJoinNode,
    UnionNode,
    WhereNode,
    WindowedUDONode,
)
from .time import MAX_TIME, TICK


def _freeze(payload) -> Tuple[Tuple[str, Any], ...]:
    """A hashable canonical key for a payload dict."""
    return tuple(sorted(payload.items(), key=lambda kv: kv[0]))


def _thaw(frozen: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    return dict(frozen)


def changepoints(events: Iterable[Event]) -> List[int]:
    """All instants at which the temporal relation can change, sorted."""
    points = set()
    for e in events:
        points.add(e.le)
        points.add(e.re)
    return sorted(points)


def snapshot(events: Iterable[Event], t: int) -> Counter:
    """The bag of payloads active at instant ``t`` (keys are frozen payloads)."""
    bag: Counter = Counter()
    for e in events:
        if e.active_at(t):
            bag[_freeze(e.payload)] += 1
    return bag


def normalize(events: Iterable[Event]) -> List[Event]:
    """Canonicalize a bag of events as a temporal relation.

    For each distinct payload we sweep its lifetime endpoints and emit one
    event per maximal interval of constant multiplicity (multiplicity *k*
    yields *k* stacked copies). The result is sorted deterministically, so
    two event lists are snapshot-equivalent iff their normalizations are
    equal — the equality the temporal algebra guarantees across reruns.
    """
    deltas: Dict[Tuple, List[Tuple[int, int]]] = defaultdict(list)
    for e in events:
        key = _freeze(e.payload)
        deltas[key].append((e.le, +1))
        deltas[key].append((e.re, -1))

    out: List[Event] = []
    for key, points in deltas.items():
        points.sort()
        payload = _thaw(key)
        # fold deltas at equal instants into a (t, multiplicity-after) timeline,
        # skipping instants where the multiplicity does not actually change
        timeline: List[Tuple[int, int]] = []
        multiplicity = 0
        i = 0
        n = len(points)
        while i < n:
            t = points[i][0]
            while i < n and points[i][0] == t:
                multiplicity += points[i][1]
                i += 1
            if not timeline or timeline[-1][1] != multiplicity:
                timeline.append((t, multiplicity))
        # emit maximal intervals of constant non-zero multiplicity
        for (start, mult), (end, _next) in zip(timeline, timeline[1:]):
            for _ in range(mult):
                out.append(Event(start, end, payload))
    out.sort(key=Event.sort_key)
    return out


def equivalent(a: Iterable[Event], b: Iterable[Event]) -> bool:
    """True when two event bags denote the same temporal relation."""
    return normalize(a) == normalize(b)


# ---------------------------------------------------------------------------
# Brute-force reference operators (ground truth for property tests)
# ---------------------------------------------------------------------------


def ref_where(events: Sequence[Event], predicate) -> List[Event]:
    """Reference Select: keep events whose payload satisfies ``predicate``."""
    return [e for e in events if predicate(e.payload)]


def ref_project(events: Sequence[Event], fn) -> List[Event]:
    """Reference Project: rewrite each payload with ``fn``."""
    return [e.with_payload(fn(e.payload)) for e in events]


def ref_window(events: Sequence[Event], w: int) -> List[Event]:
    """Reference sliding window: set ``re = le + w`` (AlterLifetime)."""
    return [e.with_lifetime(e.le, e.le + w) for e in events]


def _snapshots(events: Sequence[Event]):
    """``(start, end, active payloads in input order)`` for each maximal
    interval between changepoints with a non-empty active bag."""
    points = changepoints(events)
    for start, end in zip(points, points[1:]):
        active = [e.payload for e in events if e.le <= start and e.re >= end]
        if active:
            yield start, end, active


def ref_snapshot(events: Sequence[Event], fn) -> List[Event]:
    """Reference snapshot operator: at each maximal interval between
    changepoints with a non-empty active bag, one event whose payload is
    ``fn(active payload list)``, the payloads in input order."""
    return normalize([Event(s, e, fn(active)) for s, e, active in _snapshots(list(events))])


def ref_snapshot_udo(events: Sequence[Event], fn) -> List[Event]:
    """:func:`ref_snapshot`, one event per payload ``fn`` returns."""
    return normalize([Event(start, end, dict(payload))
                      for start, end, active in _snapshots(list(events)) for payload in fn(active)])


def ref_windowed_udo(events: Sequence[Event], w: int, h: int, fn, skip_empty=True) -> List[Event]:
    """Reference hopping UDO: at every multiple ``b`` of ``h`` from the
    first LE on, while a window can still see an event, one event over
    ``[b, b + h)`` per payload of ``fn(payloads with b - w < LE <= b, in
    input order, b)``; with ``skip_empty``, no call for an empty window."""
    out: List[Event] = []
    if not events:
        return out
    b, last = -(-min(e.le for e in events) // h) * h, max(e.le for e in events)
    while b - w < last:
        window = [e.payload for e in events if b - w < e.le <= b]
        if window or not skip_empty:
            out.extend(Event(b, b + h, dict(payload)) for payload in fn(window, b))
        b += h
    return out


def ref_scan(events: Sequence[Event], state_factory, fn) -> List[Event]:
    """Reference scan UDO: ``fn(state, payload, le)`` folded over the events
    in LE order from one fresh state, a point event per payload it returns."""
    state = state_factory()
    return [Event.point(e.le, dict(payload))
            for e in sorted(events, key=lambda e: e.le)
            for payload in fn(state, e.payload, e.le)]


def ref_aggregate(events: Sequence[Event], fn, into: str) -> List[Event]:
    """Reference snapshot aggregate: ``{into: fn(active payloads)}`` per
    snapshot (:func:`ref_snapshot`)."""
    return ref_snapshot(events, lambda active: {into: fn(active)})


def ref_specs(events: Sequence[Event], specs) -> List[Event]:
    """Reference snapshot aggregate over ``AggSpec`` s: every snapshot's
    values from fresh states fed the whole active bag, one ``add`` per
    payload — no panes, no expiry heap, nothing carried between
    snapshots."""

    def values(active):
        payload = {}
        for spec in specs:
            state = spec.build()
            for p in active:
                state.add(p)
            payload[spec.into] = state.value()
        return payload

    return ref_snapshot(events, values)


def ref_alter_lifetime(events: Sequence[Event], le_fn, re_fn) -> List[Event]:
    """Reference AlterLifetime: ``(le, re) -> (le_fn(le, re), re_fn(le,
    re))``; an empty lifetime leaves the relation; stably LE-sorted."""
    out = []
    for e in events:
        le, re = le_fn(e.le, e.re), re_fn(e.le, e.re)
        if re > le:
            out.append(Event(le, re, e.payload))
    out.sort(key=lambda e: e.le)
    return out


def ref_count_window(events: Sequence[Event], n: int) -> List[Event]:
    """Reference count window over LE-ordered ``events``: event ``i``'s
    RE is event ``i + n``'s LE (or the end of time).

    Events whose successor shares their timestamp vanish (empty lifetime).
    """
    out = []
    for i, e in enumerate(events):
        re = events[i + n].le if i + n < len(events) else MAX_TIME
        if re > e.le:
            out.append(Event(e.le, re, e.payload))
    return out


def ref_session_window(events: Sequence[Event], gap: int) -> List[Event]:
    """Reference session window over LE-ordered ``events``: split on gaps
    ``>= gap``; each member's lifetime is ``[le, last + gap)``."""
    out = []
    session: List[Event] = []
    for e in events:
        if session and e.le - session[-1].le >= gap:
            end = session[-1].le + gap
            out.extend(Event(x.le, end, x.payload) for x in session)
            session = []
        session.append(e)
    if session:
        end = session[-1].le + gap
        out.extend(Event(x.le, end, x.payload) for x in session)
    return out


def ref_temporal_join(
    left: Sequence[Event], right: Sequence[Event], condition, select=None
) -> List[Event]:
    """Reference TemporalJoin: relational join on overlapping lifetimes.

    Output payload is ``select(left, right)``, by default the left payload
    merged with the right one (right wins on column collisions); output
    lifetime is the lifetimes' intersection.
    """
    out = []
    for l in left:
        for r in right:
            if l.overlaps(r) and condition(l.payload, r.payload):
                if select is None:
                    merged = {**l.payload, **r.payload}
                else:
                    merged = select(l.payload, r.payload)
                out.append(Event(max(l.le, r.le), min(l.re, r.re), merged))
    return out


def ref_anti_semi_join(
    left: Sequence[Event], right: Sequence[Event], condition
) -> List[Event]:
    """Reference AntiSemiJoin for point events on the left input.

    Emits left point events whose instant is not covered by any matching
    right event (Section II-A.2: "eliminate point events from the left
    input that do intersect some matching event in the right synopsis").
    """
    out = []
    for l in left:
        if not l.is_point:
            raise ValueError("reference AntiSemiJoin requires point events on the left")
        covered = any(
            r.active_at(l.le) and condition(l.payload, r.payload) for r in right
        )
        if not covered:
            out.append(l)
    return out


def ref_union(left: Sequence[Event], right: Sequence[Event]) -> List[Event]:
    """Reference Union: the bag union of both inputs."""
    return list(left) + list(right)


# ---------------------------------------------------------------------------
# The whole-plan reference
# ---------------------------------------------------------------------------


def _lifetime_fns(node: AlterLifetimeNode):
    """``(le_fn, re_fn)`` of an AlterLifetime node, from its kind and
    parameters."""
    p = node.params
    if node.kind == "window":
        return (lambda le, re: le), (lambda le, re: le + p["w"])
    if node.kind == "hop":
        def up(le):
            return -(-le // p["h"]) * p["h"]

        return (lambda le, re: up(le)), (lambda le, re: up(le) + p["w"])
    if node.kind == "shift":
        return (
            lambda le, re: le + p["delta_le"],
            lambda le, re: re + p["delta_re"],
        )
    if node.kind == "point":
        return (lambda le, re: le), (lambda le, re: le + TICK)
    return p["le_fn"], p["re_fn"]


def _matches(on, residual):
    """A join's condition over ``(left payload, right payload)``."""

    def condition(lp, rp):
        if any(lp[k] != rp[k] for k in on):
            return False
        return residual is None or residual(lp, rp)

    return condition


def ref_plan(root: PlanNode, sources: Mapping[str, Sequence[Event]]) -> List[Event]:
    """Evaluate the plan ``root`` over whole materialised ``sources`` (a
    name -> events mapping, each list stably sorted by LE here), node by
    node, each node's output a complete list. Compare results with
    :func:`normalize`.

    * A source is its events; an Exchange is the identity.
    * A GroupApply splits its input by key tuple, evaluates the sub-plan
      on each key's events (in input order) with the group input bound
      to them, adds the key columns to a copy of each output payload and
      concatenates the keys' results, stably LE-sorted.
    * ``where``, ``project``, every AlterLifetime kind (window, hop,
      shift, point, custom), count and session windows, aggregates,
      ``union``, temporal joins and anti-semi-joins use this module's
      ``ref_*`` evaluators (:func:`ref_where`, :func:`ref_project`,
      :func:`ref_alter_lifetime`, :func:`ref_count_window`,
      :func:`ref_session_window`, :func:`ref_specs`, :func:`ref_union`,
      :func:`ref_temporal_join`, :func:`ref_anti_semi_join`, the last
      only for point events on its left input).
    * The windowed, snapshot and scan UDOs use :func:`ref_windowed_udo`,
      :func:`ref_snapshot_udo` and :func:`ref_scan`, written from their
      definitions; any other node is a ``TypeError``.

    Nothing here is incremental: there are no watermarks, waves, chains
    or wake times, and nothing is imported from ``repro.runtime``.
    """
    streams = {
        name: sorted(events, key=lambda e: e.le) for name, events in sources.items()
    }
    return _evaluate(root, streams, {}, {})


def _evaluate(node: PlanNode, streams, bound: Dict[int, List[Event]], memo) -> List[Event]:
    if node.node_id in memo:
        return memo[node.node_id]
    if isinstance(node, SourceNode):
        out = list(streams[node.name])
    elif isinstance(node, GroupInputNode):
        out = bound[node.node_id]
    elif isinstance(node, GroupApplyNode):
        (events,) = [_evaluate(c, streams, bound, memo) for c in node.inputs]
        out = _group_apply(node, events, streams, bound)
    else:
        ins = [_evaluate(c, streams, bound, memo) for c in node.inputs]
        out = _operator(node, ins)
    memo[node.node_id] = out
    return out


def _group_apply(node: GroupApplyNode, events, streams, bound) -> List[Event]:
    groups: Dict[Tuple, List[Event]] = {}
    for e in events:
        groups.setdefault(tuple(e.payload[k] for k in node.keys), []).append(e)
    out = []
    for key, part in groups.items():
        inner = {**bound, node.group_input.node_id: part}
        columns = dict(zip(node.keys, key))
        for e in _evaluate(node.subplan_root, streams, inner, {}):
            payload = dict(e.payload)
            payload.update(columns)
            out.append(e.with_payload(payload))
    out.sort(key=lambda e: e.le)
    return out


def _operator(node: PlanNode, ins: List[List[Event]]) -> List[Event]:
    if isinstance(node, ExchangeNode):
        return ins[0]
    if isinstance(node, WhereNode):
        return ref_where(ins[0], node.predicate)
    if isinstance(node, ProjectNode):
        return ref_project(ins[0], node.fn)
    if isinstance(node, AlterLifetimeNode):
        return ref_alter_lifetime(ins[0], *_lifetime_fns(node))
    if isinstance(node, CountWindowNode):
        return ref_count_window(ins[0], node.n)
    if isinstance(node, SessionWindowNode):
        return ref_session_window(ins[0], node.gap)
    if isinstance(node, AggregateNode):
        return ref_specs(ins[0], node.specs)
    if isinstance(node, UnionNode):
        return sorted(ref_union(*ins), key=lambda e: e.le)
    if isinstance(node, TemporalJoinNode):
        out = ref_temporal_join(*ins, _matches(node.on, node.residual), node.select)
        return sorted(out, key=lambda e: e.le)
    if isinstance(node, AntiSemiJoinNode):
        return ref_anti_semi_join(*ins, _matches(node.on, node.residual))
    if isinstance(node, WindowedUDONode):
        return ref_windowed_udo(ins[0], node.w, node.h, node.fn, node.skip_empty)
    if isinstance(node, SnapshotUDONode):
        return ref_snapshot_udo(ins[0], node.fn)
    if isinstance(node, ScanUDONode):
        return ref_scan(ins[0], node.state_factory, node.fn)
    raise TypeError(f"no reference evaluator for {type(node).__name__}")
