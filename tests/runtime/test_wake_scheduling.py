"""Wake-time scheduling of GroupApply chains: lazy ≡ eager, per push.

A GroupApply wave advances only the chains that were fed plus the chains
whose wake time has come (``next_wake`` in docs/EXECUTION.md). The
reference is the same code under the *conservative* schedule: every
operator that reports a wake time says "always" instead, so every
non-idle chain advances at every wave — the walk over the whole active
set the runtime used to do. Idle stays idle (``None``) in both: the
group watermark's idle-delta arithmetic is part of either schedule.

The contract is per call, not per run: each ``push`` / ``advance_to`` /
``flush`` releases the same events in the same order and leaves the same
``output_watermark``. The cost claim is shown by a count
(``Dataflow.chain_advances``), never by a clock.
"""

import contextlib
import heapq
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bt.queries import UNIFIED_COLUMNS, bot_elimination_query
from repro.bt.schema import CLICK, KEYWORD, BTConfig
from repro.data import GeneratorConfig, generate
from repro.runtime import RunContext, dataflow, keyed
from repro.runtime.dataflow import Dataflow, StreamingUnsupported
from repro.temporal import Engine, Query, StreamingEngine
from repro.temporal.event import Event, point_events
from repro.temporal.operators import (
    WAKE_ALWAYS,
    AggSpec,
    SnapshotAggregate,
    UnaryOperator,
    aggregate,
)
from repro.temporal.time import MAX_TIME


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _never_sleeps(next_wake):
    def conservative(self):
        return None if next_wake(self) is None else WAKE_ALWAYS

    return conservative


@contextlib.contextmanager
def conservative_schedule():
    """Run the body with no operator ever reporting a wake time."""
    with contextlib.ExitStack() as stack:
        for cls in _subclasses(UnaryOperator):
            override = cls.__dict__.get("next_wake")
            if override is not None:
                stack.enter_context(
                    mock.patch.object(cls, "next_wake", _never_sleeps(override))
                )
        yield


def raw(events):
    return [(e.le, e.re, sorted(e.payload.items())) for e in events]


class PerFeedFlow:
    """A ``Dataflow`` fed one event per call, deferred operators allowed.

    ``StreamingEngine`` rejects a GroupApply over a count or session
    window (the sub-plan's *past* extent is unbounded, and the plan node
    reports that as unstreamable); the runtime itself runs them
    incrementally, and this is the way in.
    """

    def __init__(self, query):
        self._flow = Dataflow(query.to_plan(), allow_unstreamable=True)

    @property
    def output_watermark(self):
        return self._flow.output_watermark

    def push(self, source, row):
        (event,) = point_events([row])
        self._flow.feed(source, (event,), event.le)
        return self._flow.advance()

    def advance_to(self, watermark):
        self._flow.set_watermarks(watermark)
        return self._flow.advance()

    def flush(self):
        return self._flow.flush()


def drive(query, script, slack=0, wakes=False):
    """Run ``script`` — ``("push", row)`` / ``("cti", t)`` steps — and
    return what every call released, in order, with the output watermark
    it left (and, with ``wakes``, the flow's ``next_wake`` and chain
    advances so far), the flush tail last; plus the chain-advance count."""
    try:
        engine = StreamingEngine(query, slack=slack)
    except StreamingUnsupported:
        assert not slack
        engine = PerFeedFlow(query)

    def step(out):
        flow = engine._flow
        wake = (flow.next_wake(), flow.chain_advances) if wakes else None
        return raw(out), engine.output_watermark, wake

    steps = []
    for op, arg in script:
        if op == "push":
            steps.append(step(engine.push("logs", dict(arg))))
        else:
            steps.append(step(engine.advance_to(arg)))
    steps.append(step(engine.flush()))
    return steps, engine._flow.chain_advances


def assert_lazy_equals_eager(query, script, slack=0):
    lazy, lazy_advances = drive(query, script, slack)
    with conservative_schedule():
        eager, eager_advances = drive(query, script, slack)
    for i, (got, want) in enumerate(zip(lazy, eager)):
        assert got == want, f"step {i} of {len(eager)} ({script[i:i + 1]})"
    assert lazy_advances <= eager_advances
    return lazy_advances, eager_advances


# -- generated plans × histories ---------------------------------------------


def _window_fn(payloads, boundary):
    return [{"n": len(payloads), "at": boundary}]


def _snapshot_fn(payloads):
    return [{"n": len(payloads), "v": sum(p["V"] for p in payloads)}]


def _is(stream):
    return lambda p: p["StreamId"] == stream


#: GroupApply sub-plans, one per way a chain can hold, track or release
#: its watermark.
SUBPLANS = {
    "count": lambda g: g.window(7).count(into="n"),
    "sum": lambda g: g.window(9).sum("V", into="s"),
    "hopping-min": lambda g: g.hopping_window(12, 4).min("V", into="m"),
    "session": lambda g: g.session_window(5).count(into="n"),
    "count-window": lambda g: g.count_window(2).sum("V", into="s"),
    # no hold at all: the chain's watermark follows the input's
    "windowed-udo": lambda g: g.udo_hopping(8, 4, _window_fn),
    "snapshot-udo": lambda g: g.window(6).udo_snapshot(_snapshot_fn),
    # bot-detect's shape: two filtered, thresholded aggregate branches
    "union": lambda g: (
        g.where(_is(1)).window(7).count(into="n").where(lambda p: p["n"] > 1)
        .union(
            g.where(_is(0)).window(11).count(into="n")
            .where(lambda p: p["n"] > 1)
        )
    ),
    # outputs precede inputs: the chain's watermark lags by a constant
    "shift-back": lambda g: g.shift(-3).window(6).count(into="n"),
    # the aggregate's hold starts out *ahead* of the watermark
    "shift-forward": lambda g: g.shift(4).window(6).count(into="n"),
    # a held branch unioned with a lagging idle one: min(hold, w - 5)
    "held-union-lagging": lambda g: (
        g.window(7).count(into="n")
        .union(g.where(_is(0)).shift(-5).project(lambda p: {"n": 0}))
    ),
    "nested": lambda g: g.group_apply(
        "StreamId", lambda gg: gg.window(8).count(into="n")
    ),
    "nested-session-union": lambda g: g.group_apply(
        "StreamId",
        lambda gg: gg.session_window(4).count(into="n")
        .union(gg.window(10).sum("V", into="n")),
    ),
}

#: Sub-plans only :class:`PerFeedFlow` accepts (in-order input only).
UNSTREAMABLE = {"session", "count-window", "nested-session-union"}

#: What sits between the source and the GroupApply. The hopping window
#: hands chains events whose LE is ahead of the group's input watermark,
#: as ``bot_detection_query`` does.
PREFIXES = {
    "source": lambda q: q,
    "hopping": lambda q: q.hopping_window(8, 4),
}


def build(prefix, subplan, shapes=SUBPLANS):
    source = Query.source("logs", ("StreamId", "UserId", "V"))
    return PREFIXES[prefix](source).group_apply("UserId", shapes[subplan])


def wave_rows(n, seed=7):
    """``n`` in-order rows with ties, twelve users: input for the batch
    driver, whose amortized waves need thousands of fed events."""
    rng = random.Random(seed)
    now = 0
    rows = []
    for _ in range(n):
        now += rng.choice([0, 0, 1, 1, 2, 3])
        rows.append(
            {
                "Time": now,
                "StreamId": rng.randrange(2),
                "UserId": rng.randrange(12),
                "V": rng.randrange(4),
            }
        )
    return rows


@st.composite
def scripts(draw, slack):
    """Pushes at non-decreasing times — ties included — late by at most
    ``slack`` and never behind a CTI, interleaved with CTIs. A CTI may
    overtake events still in the slack reorder buffer; ``advance_to``
    releases those before it moves the watermark."""
    n = draw(st.integers(min_value=0, max_value=40))
    gaps = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 1, 2, 3, 5, 9, 20]),
            min_size=n,
            max_size=n,
        )
    )
    script = []
    now = floor = 0
    for gap in gaps:
        now += gap
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            floor = now + draw(st.integers(min_value=0, max_value=6))
            now = floor
            script.append(("cti", floor))
            continue
        late = draw(st.integers(min_value=0, max_value=slack))
        row = {
            "Time": max(floor, now - late),
            "StreamId": draw(st.sampled_from([0, 1])),
            "UserId": draw(st.sampled_from(["u1", "u2", "u3", "u4"])),
            "V": draw(st.integers(min_value=0, max_value=3)),
        }
        script.append(("push", row))
    return script


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(SUBPLANS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lazy_equals_eager_per_push(prefix, subplan, data):
    slack = 0 if subplan in UNSTREAMABLE else data.draw(st.sampled_from([0, 4]))
    script = data.draw(scripts(slack))
    assert_lazy_equals_eager(build(prefix, subplan), script, slack)


@pytest.mark.parametrize("subplan", sorted(SUBPLANS))
def test_batch_driver_is_schedule_blind(subplan):
    """The batch driver's amortized waves go through the same scheduler
    (a wave needs more than 4,096 fed events, so the input is long)."""
    rows = wave_rows(13_000)
    query = build("source", subplan)
    lazy = raw(Engine().run(query, {"logs": rows}, validate=False))
    with conservative_schedule():
        eager = raw(Engine().run(query, {"logs": rows}, validate=False))
    assert lazy == eager


# -- the paper's live-feed query ----------------------------------------------


def bot_rows(users, pushes, seed=0):
    rows = generate(
        GeneratorConfig(num_users=users, duration_days=2.0, seed=seed)
    ).rows[:pushes]
    assert len(rows) == pushes
    return rows


def bot_query():
    return bot_elimination_query(
        Query.source("logs", UNIFIED_COLUMNS),
        BTConfig(min_support=2, z_threshold=1.0),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bot_elimination_lazy_equals_eager(seed):
    script = [("push", row) for row in bot_rows(60, 2000, seed)]
    lazy, eager = assert_lazy_equals_eager(bot_query(), script)
    # the 6 h window keeps nearly every user non-idle: the eager walk
    # pays for all of them at every push
    assert eager > 10 * lazy


@pytest.mark.parametrize("users", [100, 400, 1600])
def test_push_cost_is_fed_plus_due(users):
    """O(fed + due) per push, not O(active keys) — as a count."""
    pushes = 1500
    rows = bot_rows(users, pushes)
    script = [("push", row) for row in rows]
    groups = len({row["UserId"] for row in rows})
    _, advances = drive(bot_query(), script)
    # each push feeds one chain; a chain is due again only when one of
    # its own windows expires; the flush advances every group once
    assert advances <= 2 * pushes + groups
    assert drive(bot_query(), script)[1] == advances


def test_heaps_track_the_active_set_not_the_stream():
    """Lazy deletion must not let stale entries pile up with the feed."""
    # count windows never wake before flush; three keys fed 3,000 times
    query = Query.source("logs", ("UserId", "V")).group_apply(
        "UserId", lambda g: g.count_window(2).sum("V", into="s")
    )
    engine = PerFeedFlow(query)
    for t in range(3000):
        engine.push("logs", {"Time": t, "UserId": t % 3, "V": 1})
    (node,) = [
        n for n in engine._flow._op_nodes if hasattr(n, "chain_advances")
    ]
    assert len(node._active) == 3
    assert len(node._held) + len(node._wake_heap) <= 4 * 3 + 64 + 1


def test_ties_release_in_activation_order():
    """The one thing lazy and eager share, pinned on its own: chains woken
    together merge tied output LEs in the order they became active, and
    a chain that idled and came back goes to the end of that order."""
    query = Query.source("logs", ("UserId",)).group_apply(
        "UserId", lambda g: g.window(5).count(into="n")
    )
    engine = StreamingEngine(query)

    def users(events):
        return [e.payload["UserId"] for e in events]

    for user in ("b", "c", "a"):
        assert engine.push("logs", {"Time": 0, "UserId": user}) == []
    assert users(engine.advance_to(10)) == ["b", "c", "a"]  # all idle now
    for user in ("a", "c", "b"):
        assert engine.push("logs", {"Time": 20, "UserId": user}) == []
    assert users(engine.advance_to(30)) == ["a", "c", "b"]


# -- keyed window→aggregate sweep ≡ stage by stage ----------------------------
#
# A GroupApply whose per-key plan is stateless stages feeding an
# aggregate runs as one keyed sweep over all keys: lifetimes computed
# inside the sweep, key columns written into the aggregate's payloads
# (docs/EXECUTION.md). The reference is a flat chain per key with
# in-place attachment switched off too: every stage through its own
# ``on_batch``, the windowed events built, key columns attached to a
# copy — the physical path before fusion existed.


@contextlib.contextmanager
def unfused_reference():
    with mock.patch.object(dataflow, "_keyed_aggregate", lambda *a: None), \
            mock.patch.object(SnapshotAggregate, "fresh_payloads", False):
        yield


#: What ``project`` hands every event in "project-shared-last": were key
#: columns attached in place, this very dict would grow a ``UserId``.
SHARED_PAYLOAD = {"c": 1}

#: The wake-scheduling shapes plus per-key plans on either side of the
#: keyed-sweep rule. Marked (k) run as the keyed sweep.
FUSION_SHAPES = {
    **SUBPLANS,
    # (k), removals that depend on the payload handed to the sweep
    "multi-agg": lambda g: g.window(9).aggregate(
        AggSpec("count", "n"), AggSpec("sum", "s", "V"), AggSpec("max", "m", "V")
    ),
    "topk": lambda g: g.window(8).topk("V", k=2, into="t"),
    "hopping-max": lambda g: g.hopping_window(12, 4).max("V", into="m"),
    # (k), one folded partial per pane and no payload kept: a pane is
    # fed by several pushes, with CTIs and other panes' expiries between
    "hopping-sum": lambda g: g.hopping_window(12, 4).sum("V", into="s"),
    "hopping-avg": lambda g: g.hopping_window(16, 4).aggregate(
        AggSpec("avg", "a", "V"), AggSpec("count", "n")
    ),
    # (k), the aggregate writes into the group key's own column: the
    # key value wins and the column keeps its place, as with the copy
    "into-key-column": lambda g: g.window(7).count(into="UserId"),
    # (k), through the general stage path: something other than a lone
    # time window feeds the aggregate
    "shift-before-agg": lambda g: g.window(6).shift(2).count(into="n"),
    "where-before-agg": lambda g: (
        g.window(7).where(lambda p: p["V"] > 0).count(into="n")
    ),
    # not (k): a custom rewrite runs deferred inside a nested flow
    "custom-lifetime": lambda g: g.alter_lifetime(
        lambda le, re: le, lambda le, re: le + 4
    ).count(into="n"),
    "alive-forever": lambda g: g.alter_lifetime(
        lambda le, re: le, lambda le, re: MAX_TIME
    ).sum("V", into="s"),
    # flat chains, not (k), that must copy before attaching keys: the
    # last stage passes payloads through, or emits what a user function
    # returned — never the chain's to write to
    "project-last": lambda g: g.window(6).count(into="n").project(
        lambda p: {"n": p["n"], "twice": 2 * p["n"]}
    ),
    "project-shared-last": lambda g: g.window(6).count(into="n").project(
        lambda p: SHARED_PAYLOAD
    ),
    "where-last": lambda g: g.window(6).sum("V", into="s").where(
        lambda p: p["s"] > 1
    ),
    # (k), the general stage path: a where that drops a key's
    # only events still activates the key, a project feeds the
    # aggregate a new payload, no stage at all sweeps the raw lifetimes
    "where-first": lambda g: g.where(_is(1)).window(7).count(into="n"),
    "project-first": lambda g: g.project(
        lambda p: {"V": p["V"] + 1}
    ).hopping_window(12, 4).sum("V", into="s"),
    "bare-count": lambda g: g.count(into="n"),
    # no operator at all: the chain's output is its input, keys attached
    "identity": lambda g: g,
}

#: Custom lifetime rewrites run deferred inside the chain: batch only.
FUSION_UNSTREAMABLE = UNSTREAMABLE | {"custom-lifetime", "alive-forever"}


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fused_equals_unfused_per_push(prefix, subplan, data):
    streamable = subplan not in FUSION_UNSTREAMABLE
    slack = data.draw(st.sampled_from([0, 4])) if streamable else 0
    script = data.draw(scripts(slack))
    query = build(prefix, subplan, FUSION_SHAPES)
    fused, fused_advances = drive(query, script, slack, wakes=True)
    with unfused_reference():
        plain, plain_advances = drive(query, script, slack, wakes=True)
    for i, (got, want) in enumerate(zip(fused, plain)):
        assert got == want, f"step {i} of {len(plain)} ({script[i:i + 1]})"
    assert fused_advances == plain_advances
    assert SHARED_PAYLOAD == {"c": 1}


def drive_in_batches(query, rows, chunk=50, wave=64):
    """The batch driver's loop — chunked feeds, amortized waves — with
    every ``advance`` call's releases, watermark and wake time kept."""
    flow = Dataflow(
        query.to_plan(), allow_unstreamable=True, group_wave_events=wave
    )
    calls = []

    def call(out):
        wake = flow.next_wake(), flow.chain_advances
        calls.append((raw(out), flow.output_watermark, wake))

    for i in range(0, len(rows), chunk):
        events = point_events(rows[i : i + chunk])
        flow.feed("logs", events, events[-1].le)
        call(flow.advance())
    call(flow.flush())
    return calls


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
def test_fused_equals_unfused_per_batch_call(prefix, subplan):
    rows = wave_rows(2500)
    query = build(prefix, subplan, FUSION_SHAPES)
    fused = drive_in_batches(query, rows)
    with unfused_reference():
        plain = drive_in_batches(query, rows)
    if subplan not in ("custom-lifetime", "alive-forever"):  # deferred to flush
        assert any(released for released, _, _ in plain[:-1])  # waves did run
    for i, (got, want) in enumerate(zip(fused, plain)):
        assert got == want, f"advance call {i} of {len(plain)}"
    assert SHARED_PAYLOAD == {"c": 1}


# -- flat chains and the keyed sweep ≡ a nested flow per key -----------------
#
# A GroupApply sub-plan of bounded unary and binary operators runs on a
# flat chain per key, or as the keyed sweep; the reference is the nested
# ``Dataflow`` per key that only nested GroupApply, Exchange and
# unbounded rewrites still get (docs/EXECUTION.md). Outputs alone are not
# the contract: a key's input watermark — the group's, or the last LE fed
# to that key when later — decides when a chain may sleep, so the wake
# times and the chain-advance count must agree call for call too.


@contextlib.contextmanager
def nested_reference():
    """Every GroupApply sub-plan on a nested flow per key."""
    with mock.patch.object(dataflow, "_flat_plan", lambda *a: None):
        yield


#: The shapes that run flat or keyed (every other one is nested on both
#: sides).
FLAT_SHAPES = sorted(
    name
    for name in FUSION_SHAPES
    if dataflow._flat_plan(build("source", name, FUSION_SHAPES).to_plan())
)


def test_flat_shapes_cover_every_kind():
    assert {"union", "held-union-lagging", "where-last", "count"} <= set(FLAT_SHAPES)
    assert not {"nested", "custom-lifetime"} & set(FLAT_SHAPES)


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", FLAT_SHAPES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_flat_equals_nested_per_push(prefix, subplan, data):
    slack = 0 if subplan in FUSION_UNSTREAMABLE else data.draw(st.sampled_from([0, 4]))
    script = data.draw(scripts(slack))
    query = build(prefix, subplan, FUSION_SHAPES)
    flat, flat_advances = drive(query, script, slack, wakes=True)
    with nested_reference():
        nested, nested_advances = drive(query, script, slack, wakes=True)
    for i, (got, want) in enumerate(zip(flat, nested)):
        assert got == want, f"step {i} of {len(nested)} ({script[i:i + 1]})"
    assert flat_advances == nested_advances


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", FLAT_SHAPES)
def test_flat_equals_nested_per_batch_call(prefix, subplan):
    rows = wave_rows(2500)
    query = build(prefix, subplan, FUSION_SHAPES)
    flat = drive_in_batches(query, rows)
    with nested_reference():
        nested = drive_in_batches(query, rows)
    for i, (got, want) in enumerate(zip(flat, nested)):
        assert got == want, f"advance call {i} of {len(nested)}"


def count_flows(run):
    built = [0]
    init = Dataflow.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    with mock.patch.object(Dataflow, "__init__", counting_init):
        out = run()
    return built[0], out


def test_bot_elimination_runs_one_dataflow():
    """Bot detection's per-user plan — two ``where → count → where``
    branches joined by a union — is a flat chain per user: one
    ``Dataflow`` for the whole query where the nested reference builds
    one more per user, the same calls' releases, watermarks and wake
    times, and as many chain advances (2,112 on the ``stream_push``
    seed-0 rows, where a chain fed the group's watermark made ~30k)."""
    rows = bot_rows(200, 1800)
    script = [("push", row) for row in rows]
    users = len({row["UserId"] for row in rows})
    flows, (flat, advances) = count_flows(
        lambda: drive(bot_query(), script, wakes=True)
    )
    with nested_reference():
        nested_flows, (nested, nested_advances) = count_flows(
            lambda: drive(bot_query(), script, wakes=True)
        )
    assert flows == 1 and nested_flows == 1 + users
    assert flat == nested
    assert advances == nested_advances == 2112


@pytest.mark.parametrize(
    "stream, advances", [(KEYWORD, 2107), (CLICK, 2005)], ids=["keyword", "click"]
)
def test_keyed_count_behind_a_hop_sleeps_as_the_nested_flow(stream, advances):
    """A hopping window hands each key LEs ahead of the group watermark;
    the keyed sweep takes the key's own input watermark as the nested
    flow does, so its holds bind and it advances as seldom (a sweep fed
    only the group's watermark advanced 28,301 / 3,889 times)."""
    cfg = BTConfig(min_support=2, z_threshold=1.0)
    query = (
        Query.source("logs", UNIFIED_COLUMNS)
        .hopping_window(cfg.bot_window, cfg.bot_hop)
        .group_apply(
            "UserId", lambda g: g.where_equals("StreamId", stream).count(into="n")
        )
    )
    assert dataflow._keyed_aggregate(
        query.to_plan(), dataflow._flat_plan(query.to_plan())
    )
    script = [("push", row) for row in bot_rows(200, 1800)]
    keyed, keyed_advances = drive(query, script, wakes=True)
    with nested_reference():
        nested, nested_advances = drive(query, script, wakes=True)
    assert keyed == nested
    assert keyed_advances == nested_advances == advances


@pytest.mark.parametrize("last", ["where", "project"])
def test_pass_through_chains_copy_before_attaching_keys(last):
    """A chain whose last stage hands the input's payload object on must
    not write the key columns into it."""
    tail = {
        "where": lambda g: g.where(lambda p: True),
        "project": lambda g: g.project(lambda p: p),
    }[last]
    query = Query.source("logs", ("UserId", "V")).group_apply("UserId", tail)
    events = [Event.point(t, {"UserId": t % 3, "V": t}) for t in range(40)]
    before = [dict(e.payload) for e in events]
    flow = Dataflow(query.to_plan())
    flow.feed("logs", events, events[-1].le)
    out = flow.advance() + flow.flush()
    assert len(out) == len(events)
    fed = {id(e.payload) for e in events}
    assert not any(id(e.payload) in fed for e in out)
    assert [e.payload for e in events] == before
    assert [list(e.payload) for e in events] == [list(p) for p in before]


def count_event_constructions(run):
    built = [0]
    init = Event.__init__

    def counting_init(self, le, re, payload):
        built[0] += 1
        init(self, le, re, payload)

    with mock.patch.object(Event, "__init__", counting_init):
        out = run()
    return built[0], out


@pytest.mark.parametrize(
    "subplan",
    [
        lambda g: g.window(50).sum("V", into="s"),
        lambda g: g.hopping_window(48, 4).count(into="n"),
    ],
    ids=["sliding-sum", "hopping-count"],
)
def test_one_event_per_input_and_one_per_output(subplan):
    """The allocation gate, as a count: ingest builds one ``Event`` per
    row and the aggregate one per output; the windowed copy and the
    keyed copy in between (two more per row and per output before
    fusion) are gone."""
    rows = wave_rows(5000)
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply(
        "UserId", subplan
    )
    engine = Engine(context=RunContext(executor="serial"))
    built, out = count_event_constructions(
        lambda: engine.run(query, {"logs": rows}, validate=False)
    )
    assert out and built <= len(rows) + len(out)
    with unfused_reference():
        unfused, again = count_event_constructions(
            lambda: engine.run(query, {"logs": rows}, validate=False)
        )
    assert raw(again) == raw(out)
    assert unfused == 2 * (len(rows) + len(out))


# -- pane state: the heap and what a pane keeps -------------------------------
#
# The aggregate's expiry heap holds distinct REs and a pane per RE
# (docs/OPERATORS.md, hopping window): a folded partial for count / sum /
# avg / stddev, the payloads for the rest. Shown as counts, not clocks.


class _CountingHeapq:
    """``heapq`` as ``runtime.keyed`` sees it, pushes counted."""

    def __init__(self):
        self.pushes = 0
        self.heappop = heapq.heappop

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)


def pane_state(subplan, rows):
    """Drive ``rows`` through the batch driver up to, not including, the
    flush: ``(aggregate heap pushes, input payloads still referenced from
    aggregate state, output)``. The aggregate state is each key's panes
    and fold in the keyed sweep (``runtime/keyed.py``)."""
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply(
        "UserId", subplan
    )

    def payloads_under(state):
        if isinstance(state, dict):
            return 1 if id(state) in fed else sum(map(payloads_under, state.values()))
        if isinstance(state, (list, tuple)):
            return sum(map(payloads_under, state))
        if isinstance(state, (aggregate.AggregateFunction, aggregate._Together)):
            fields = [
                getattr(state, name)
                for cls in type(state).__mro__
                for name in getattr(cls, "__slots__", ())
            ]
            return payloads_under(fields + list(getattr(state, "__dict__", {}).values()))
        return 0

    counting = _CountingHeapq()
    events = point_events(rows)
    fed = {id(e.payload) for e in events}
    with mock.patch.object(keyed, "heapq", counting):
        flow = Dataflow(query.to_plan(), group_wave_events=64)
        out = []
        for i in range(0, len(events), 50):
            chunk = events[i : i + 50]
            flow.feed("logs", chunk, chunk[-1].le)
            out.extend(flow.advance())
        (node,) = [n for n in flow._op_nodes if getattr(n, "_keyed", None)]
        states = list(node._groups.values())
        retained = sum(payloads_under([st.panes, st.fold]) for st in states)
        live = sum(len(st.pending) for st in states)
        out.extend(flow.flush())
    assert live  # measured mid-window, not after everything expired
    return counting.pushes, retained, out


@pytest.mark.parametrize(
    "specs",
    [
        [AggSpec("count", "n")],
        [AggSpec("sum", "s", "V")],
        [AggSpec("avg", "a", "V"), AggSpec("stddev", "d", "V"), AggSpec("count", "n")],
    ],
    ids=["count", "sum", "avg+stddev+count"],
)
def test_hopping_state_is_one_partial_per_pane(specs):
    """Heap pushes ≤ distinct (key, RE) pairs, and no payload is kept:
    ``size/hop`` partials per key, whatever the event rate."""
    rows = wave_rows(5000)
    size, hop = 720, 60
    panes = {(r["UserId"], -(-r["Time"] // hop) * hop + size) for r in rows}
    pushes, retained, out = pane_state(
        lambda g: g.hopping_window(size, hop).aggregate(*specs), rows
    )
    assert out and len(panes) < len(rows) / 3
    assert pushes <= len(panes)
    assert retained == 0


def test_min_max_panes_keep_their_payloads():
    """The other kind of pane: still one heap entry per (key, RE), and
    the count above is not blind — here it finds what is kept."""
    rows = wave_rows(5000)
    panes = {(r["UserId"], -(-r["Time"] // 60) * 60 + 720) for r in rows}
    pushes, retained, _ = pane_state(
        lambda g: g.hopping_window(720, 60).aggregate(
            AggSpec("count", "n"), AggSpec("max", "m", "V")
        ),
        rows,
    )
    assert pushes <= len(panes)
    assert retained > 400  # the arrivals of the last 720 ticks


def test_sliding_panes_still_cost_one_push_per_event():
    """A sliding window gives every arrival of a key its own RE, so the
    regrouping finds nothing to group: one push per event, as before."""
    seen = set()
    rows = [
        row for row in wave_rows(5000)
        if (row["UserId"], row["Time"]) not in seen
        and not seen.add((row["UserId"], row["Time"]))
    ]
    pushes, retained, out = pane_state(lambda g: g.window(50).sum("V", into="s"), rows)
    assert out and pushes == len(rows) > 3500
    assert retained == 0
