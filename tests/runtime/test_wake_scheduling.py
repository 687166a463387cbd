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

import ast
import contextlib
import hashlib
import heapq
import inspect
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bt.queries import UNIFIED_COLUMNS, bot_elimination_query
from repro.bt.schema import CLICK, KEYWORD, BTConfig
from repro.data import GeneratorConfig, generate
from repro.mapreduce import Cluster, DistributedFileSystem
from repro.obs.trace import Tracer
from repro.runtime import RunContext, dataflow, keyed
from repro.runtime.dataflow import Dataflow, StreamingUnsupported
from repro.temporal import Engine, Query, StreamingEngine, normalize
from repro.temporal import engine as engine_module
from repro.temporal.event import Event, point_events, rows_to_events
from repro.temporal.operators import (
    WAKE_ALWAYS,
    AggSpec,
    SnapshotAggregate,
    UnaryOperator,
    aggregate,
)
from repro.temporal.plan import topological_order
from repro.temporal.relation import ref_plan
from repro.temporal.time import MAX_TIME, MIN_TIME
from repro.timr import TiMR


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


def to_logs(row):
    """Every row is pushed to source ``logs`` as it is."""
    return "logs", row


def drive(query, script, slack=0, wakes=False, feed=to_logs):
    """Run ``script`` — ``("push", row)`` / ``("cti", t)`` steps — and
    return what every call released, in order, with the output watermark
    it left (and, with ``wakes``, the flow's ``next_wake`` and chain
    advances so far), the flush tail last; plus the chain-advance count.
    ``feed(row)`` names the source a row is pushed to, and the row, or
    is ``None`` to leave it out."""
    engine = StreamingEngine(query, slack=slack)

    def step(out):
        flow = engine._flow
        wake = (flow.next_wake(), flow.chain_advances) if wakes else None
        return raw(out), engine.output_watermark, wake

    steps = []
    for op, arg in script:
        if op == "push":
            routed = feed(dict(arg))
            if routed is not None:
                steps.append(step(engine.push(*routed)))
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
    slack = data.draw(st.sampled_from([0, 4]))
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
    engine = StreamingEngine(query)
    for t in range(3000):
        engine.push("logs", {"Time": t, "UserId": t % 3, "V": 1})
    (node,) = [
        op for op in engine._flow._chain.ops if isinstance(op, dataflow.GroupScheduler)
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
# A GroupApply whose per-key plan is windows, hops or shifts into a count
# or plain sum runs, under the batch driver, as the array form over all
# keys: lifetimes computed over arrays, key columns put straight into the
# release (docs/EXECUTION.md); every other one, and every one per push,
# runs a flat chain per key, key columns written into the aggregate's
# payloads. The reference is a flat chain per key with
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
#: array-form rule. Marked (k): stateless stages into one aggregate; of
#: them, windows, hops and shifts into counts and plain sums run the
#: array form under the batch driver.
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
    # not (k): a custom rewrite runs deferred, buffered per key
    "custom-lifetime": lambda g: g.alter_lifetime(
        lambda le, re: le, lambda le, re: le + 4
    ).count(into="n"),
    "alive-forever": lambda g: g.alter_lifetime(
        lambda le, re: le, lambda le, re: MAX_TIME
    ).sum("V", into="s"),
    # (k) once the Exchange, the identity on one node, is no step
    "exchange": lambda g: g.window(7).exchange("UserId").count(into="n"),
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

#: Custom lifetime rewrites run deferred in each key's chain: batch only.
DEFERRED = {"custom-lifetime", "alive-forever"}


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fused_equals_unfused_per_push(prefix, subplan, data):
    query = build(prefix, subplan, FUSION_SHAPES)
    if subplan in DEFERRED:
        # an unbounded future: no per-push path, fused or not (the
        # per-batch-call test below compares these)
        with pytest.raises(StreamingUnsupported):
            StreamingEngine(query)
        with unfused_reference(), pytest.raises(StreamingUnsupported):
            StreamingEngine(query)
        return
    slack = data.draw(st.sampled_from([0, 4]))
    script = data.draw(scripts(slack))
    fused, fused_advances = drive(query, script, slack, wakes=True)
    with unfused_reference():
        plain, plain_advances = drive(query, script, slack, wakes=True)
    for i, (got, want) in enumerate(zip(fused, plain)):
        assert got == want, f"step {i} of {len(plain)} ({script[i:i + 1]})"
    assert fused_advances == plain_advances
    assert SHARED_PAYLOAD == {"c": 1}


def drive_in_batches(query, rows, chunk=50, wave=64, feed=to_logs, as_rows=False,
                     mark=None, calls=None):
    """The batch driver's loop — chunked feeds, amortized waves — with
    every ``advance`` call's releases, watermark and wake time kept (in
    ``calls`` when given). Each chunk is fed per source (``feed`` as in
    :func:`drive`), with that source's last LE as its watermark
    (``mark(le)`` of it when given): as events, or with ``as_rows`` as
    the ``Batch`` of rows ``Engine.run`` cuts from a source of rows
    (``engine._source``), whose columns a keyed sweep reads."""
    mark = mark or (lambda le: le)
    flow = Dataflow(
        query.to_plan(), allow_unstreamable=True, group_wave_events=wave
    )
    calls = [] if calls is None else calls

    def call(out):
        wake = flow.next_wake(), flow.chain_advances
        calls.append((raw(out), flow.output_watermark, wake))

    for i in range(0, len(rows), chunk):
        per_source = {}
        for routed in map(feed, rows[i : i + chunk]):
            if routed is not None:
                per_source.setdefault(routed[0], []).append(routed[1])
        for name, part in per_source.items():
            if as_rows:
                les, view = engine_module._source(part)
                flow.feed(name, view(0, len(part)), mark(les[-1]))
            else:
                events = point_events(part)
                flow.feed(name, events, mark(events[-1].le))
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
    if subplan not in DEFERRED:  # deferred to flush
        assert any(released for released, _, _ in plain[:-1])  # waves did run
    for i, (got, want) in enumerate(zip(fused, plain)):
        assert got == want, f"advance call {i} of {len(plain)}"
    assert SHARED_PAYLOAD == {"c": 1}


def _split_run_rows():
    """Chunks of four: user ``a``'s run of equal (LE, RE) at 10 spans the
    first two, ``b``'s and ``c``'s rows between its arrivals; float
    values, so a sum runs per-key chains under the batch driver too."""
    def at(t, users, v):
        return [{"Time": t, "StreamId": 0, "UserId": u, "V": v} for u in users]
    return at(10, "abac", 0.5) + at(10, "abaa", 0.25) + at(12, "cab", 1.5) + at(40, "ab", 2.0)


#: the aggregates a split run enters: a count, a float sum, a max
SPLIT_RUN_SHAPES = {
    "count": lambda g: g.window(5).count(into="n"),
    "float-sum": lambda g: g.window(5).sum("V", into="s"),
    "max": lambda g: g.window(5).max("V", into="m"),
}


@contextlib.contextmanager
def counting_enters():
    """Every aggregate's ``enter`` calls, counted."""
    calls = [0]

    def counted(enter):
        def wrapper(self, part, payloads, k):
            calls[0] += 1
            return enter(self, part, payloads, k)
        return wrapper

    with contextlib.ExitStack() as stack:
        for cls in (aggregate.AggregateFunction, aggregate.CountAgg, aggregate.SumAgg):
            stack.enter_context(mock.patch.object(cls, "enter", counted(cls.enter)))
        yield calls


@pytest.mark.parametrize("wave", [0, 64], ids=["wave-each-call", "waves-amortized"])
@pytest.mark.parametrize("as_rows", [False, True], ids=["events", "rows"])
@pytest.mark.parametrize("shape", sorted(SPLIT_RUN_SHAPES))
def test_a_run_split_across_calls(shape, as_rows, wave):
    """A key's run of equal (LE, RE) split across two batch calls
    releases what the chains do per call. With a wave after every call
    the per-push form runs chains, and the ``enter`` counts agree too;
    with amortized waves the array form enters no pane, a max runs
    chains whose aggregate sees both calls' rows at once, and the array
    form refuses a float sum at the first call."""
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply(
        "UserId", SPLIT_RUN_SHAPES[shape]
    )
    rows = _split_run_rows()
    if wave and shape == "float-sum":
        calls, unfit = drive_until_unfit(query, rows, chunk=4, wave=wave, as_rows=as_rows)
        assert calls == [] and unfit.reason == keyed.SUM_NOT_INT
        return
    with counting_enters() as keyed_enters:
        fused = drive_in_batches(query, rows, chunk=4, wave=wave, as_rows=as_rows)
    with unfused_reference(), counting_enters() as chain_enters:
        plain = drive_in_batches(query, rows, chunk=4, wave=wave, as_rows=as_rows)
    assert len(fused) == len(plain) == 5
    for i, (got, want) in enumerate(zip(fused, plain)):
        assert got == want, f"call {i} of {len(plain)}"
    if not wave:  # chains, both
        assert keyed_enters[0] == chain_enters[0] > 0


# -- one per-key form ≡ the three it replaced ---------------------------------
#
# Every GroupApply sub-plan runs as the keyed sweep or a flat chain per
# key; a nested GroupApply is a scheduler per key inside the chain, a
# deferred rewrite a buffer per key, an Exchange no step at all
# (docs/EXECUTION.md). Before that, a sub-plan with a nested GroupApply,
# an Exchange or an unbounded rewrite ran on a nested ``Dataflow`` per key,
# and flat ≡ nested was checked call for call. These tables are what the
# nested flows did: for every cell, a digest (the first 16 hex digits of
# a sha256) of each call's releases, output watermark, ``next_wake`` and
# chain-advance count, recorded with every sub-plan on a nested flow per
# key before the nested form was deleted (EXPERIMENTS.md, "One per-key
# form"). Outputs alone are not the contract: a key's input watermark —
# the group's, or the last LE fed to that key when later — decides when
# a chain may sleep, so wake times and advance counts must agree too.


def digest(calls):
    return hashlib.sha256(repr(calls).encode()).hexdigest()[:16]


def fixed_script(seed, slack, n=60):
    """A deterministic :func:`scripts`: pushes with ties, late by at most
    ``slack``, interleaved with CTIs."""
    rng = random.Random(seed)
    script, now, floor = [], 0, 0
    for _ in range(n):
        now += rng.choice([0, 0, 1, 1, 2, 3, 5, 9, 20])
        if rng.randrange(6) == 0:
            floor = now = now + rng.randrange(7)
            script.append(("cti", floor))
            continue
        row = {
            "Time": max(floor, now - rng.randrange(slack + 1)),
            "StreamId": rng.randrange(2),
            "UserId": rng.choice(["u1", "u2", "u3", "u4"]),
            "V": rng.randrange(4),
        }
        script.append(("push", row))
    return script


#: ``drive_in_batches(query, wave_rows(2500))`` per cell, on nested flows
BATCH_DIGESTS = {
    "alive-forever-hopping": "d11b199b7e30ce3d",
    "alive-forever-source": "9e4fd289b24c9ea8",
    "bare-count-hopping": "84be8e5a49eacded",
    "bare-count-source": "c574ee07ddab3d99",
    "count-hopping": "b7f7b93e54a3f934",
    "count-source": "2c90a9939f83b1fe",
    "count-window-hopping": "97ed353bb3c915f0",
    "count-window-source": "c8df9432792edd0e",
    "custom-lifetime-hopping": "e3d4d9dee0ab1b21",
    "custom-lifetime-source": "17ffa61320275ceb",
    "exchange-hopping": "b7f7b93e54a3f934",
    "exchange-source": "2c90a9939f83b1fe",
    "held-union-lagging-hopping": "2c54f167808475ee",
    "held-union-lagging-source": "1c5b864a09c71ef3",
    "hopping-avg-hopping": "d0d232f164b183dd",
    "hopping-avg-source": "7ce7bdd6f724af07",
    "hopping-max-hopping": "43f3955abbf05d31",
    "hopping-max-source": "b7c841a55af3adfc",
    "hopping-min-hopping": "fe30f327e8f3950a",
    "hopping-min-source": "1213c186afd8e879",
    "hopping-sum-hopping": "6d45d2d255d277ae",
    "hopping-sum-source": "6f6f4925bc136771",
    "identity-hopping": "0aa6a5f3e2abd02b",
    "identity-source": "0bded3c1e45a5de4",
    "into-key-column-hopping": "7a5bc10ea9c64009",
    "into-key-column-source": "4446d4bf2044d486",
    "multi-agg-hopping": "57e36119416700f4",
    "multi-agg-source": "dccb8ad4d1213e52",
    "nested-hopping": "8ba4066fc7a0f91b",
    "nested-source": "b30e0d45d384f50d",
    "nested-session-union-hopping": "fb29c23072605c66",
    "nested-session-union-source": "b497903a35ce422c",
    "project-first-hopping": "615a05689cb7eef9",
    "project-first-source": "578b9a07c952c80e",
    "project-last-hopping": "48bc9d175a144974",
    "project-last-source": "bed314c5a617b080",
    "project-shared-last-hopping": "1da8fafa6f42fcfe",
    "project-shared-last-source": "f752cc9414e4de15",
    "session-hopping": "7982be9dfc8f5720",
    "session-source": "f333552282e7aa08",
    "shift-back-hopping": "2f48b38f38edf8b9",
    "shift-back-source": "97fae57e3e6d8a59",
    "shift-before-agg-hopping": "3b7c0d2cb5a11968",
    "shift-before-agg-source": "811cdd72b8ecd233",
    "shift-forward-hopping": "d223e5e4ba6c5ffd",
    "shift-forward-source": "88e55fb731809caa",
    "snapshot-udo-hopping": "1f165fdd11ee6f46",
    "snapshot-udo-source": "49e4140d7db3136b",
    "sum-hopping": "2984f2d5d674af21",
    "sum-source": "470c730514be23e1",
    "topk-hopping": "5e8255b2ba5cac01",
    "topk-source": "4635fb99e1e9d164",
    "union-hopping": "c0f8c04f952ad170",
    "union-source": "baf02dca119ee06d",
    "where-before-agg-hopping": "2803169c803bdd6c",
    "where-before-agg-source": "d737a538866c0665",
    "where-first-hopping": "04d247d5995743d1",
    "where-first-source": "141e4e36645cfce4",
    "where-last-hopping": "7eec0f4439f95e48",
    "where-last-source": "0c59ba0e31a80ae2",
    "windowed-udo-hopping": "542d8749710f4c80",
    "windowed-udo-source": "542d8749710f4c80",
}

#: ``drive`` of two fixed scripts (slack 0 and 4) per streamable cell,
#: wake times included, on nested flows
PUSH_DIGESTS = {
    "bare-count-hopping": "d053b4b67d2e1714",
    "bare-count-source": "2a553b6227b91360",
    "count-hopping": "1b5e8fd038159a7d",
    "count-source": "431f5f5a507e6524",
    "count-window-hopping": "d444828b29e6217d",
    "count-window-source": "08ee006c88636fa9",
    "exchange-hopping": "1b5e8fd038159a7d",
    "exchange-source": "431f5f5a507e6524",
    "held-union-lagging-hopping": "740b446d778d6336",
    "held-union-lagging-source": "d24e0cc63671db44",
    "hopping-avg-hopping": "c8a0ea893d25848c",
    "hopping-avg-source": "ad9461f89b0b1ab8",
    "hopping-max-hopping": "c6354f311c2ae596",
    "hopping-max-source": "9ab0d623bc5a568f",
    "hopping-min-hopping": "6c251f36c77a3a9c",
    "hopping-min-source": "bde68741c5ce7ea3",
    "hopping-sum-hopping": "c9cf931a7c41238e",
    "hopping-sum-source": "2ae9fc4372755b72",
    "identity-hopping": "37450d25606b3d85",
    "identity-source": "fd7be407a4037928",
    "into-key-column-hopping": "1c6ece743c115bdd",
    "into-key-column-source": "ec1d579f8d7c727c",
    "multi-agg-hopping": "a1e07c92eaf83fe6",
    "multi-agg-source": "1dbb09419b5bb893",
    "nested-hopping": "5d359aa783a53077",
    "nested-source": "5006b7619bc3a12c",
    "nested-session-union-hopping": "b89a907bd4c3b5f5",
    "nested-session-union-source": "347718f0c156daf3",
    "project-first-hopping": "37c75c8c3ffd01c2",
    "project-first-source": "efbb685399f0143d",
    "project-last-hopping": "2812c7c600c4761b",
    "project-last-source": "12be1a2b592f953a",
    "project-shared-last-hopping": "26c0131c794637ac",
    "project-shared-last-source": "9852619f5cee00a0",
    "session-hopping": "3cbf34dab576572a",
    "session-source": "5e5e7aecfeb11d66",
    "shift-back-hopping": "9560b11e1b48e2da",
    "shift-back-source": "4f949fb418aad1a8",
    "shift-before-agg-hopping": "2a46f222fcb5871c",
    "shift-before-agg-source": "b184fdb0e6602511",
    "shift-forward-hopping": "a82cef8753e9a418",
    "shift-forward-source": "876405b3cc81ffa2",
    "snapshot-udo-hopping": "586e9e969df4a1e2",
    "snapshot-udo-source": "f74f3ac1c82ad35b",
    "sum-hopping": "1009f94469351a3a",
    "sum-source": "13b1ed68c12d08b3",
    "topk-hopping": "6c510b77698f0c52",
    "topk-source": "d805d4e7739325fa",
    "union-hopping": "35b801f799a0c3c3",
    "union-source": "2274e42292ad31c5",
    "where-before-agg-hopping": "ad3a30f009d16841",
    "where-before-agg-source": "18d7495ce94afe8f",
    "where-first-hopping": "cae7f7945e2550bf",
    "where-first-source": "007493e07c5f35bd",
    "where-last-hopping": "64084b01156bf5ef",
    "where-last-source": "237161fc027f1539",
    "windowed-udo-hopping": "e39ac3c754da59c0",
    "windowed-udo-source": "e39ac3c754da59c0",
}


#: ``drive_in_batches(query, wave_rows(2500), as_rows=True)`` per cell,
#: recorded with ``make record-digests`` while every row went through a
#: keyed sweep's per-row loop: cell for cell the table above, which is
#: therefore this one. The array form must match it call for call.
ROW_BATCH_DIGESTS = BATCH_DIGESTS


def push_calls(query, feed=to_logs):
    """:func:`drive` of the two fixed scripts (slack 0 and 4), wake
    times included: what a ``PUSH_DIGESTS`` entry hashes."""
    return [
        drive(query, fixed_script(seed, slack), slack, wakes=True, feed=feed)
        for seed, slack in ((1, 0), (2, 4))
    ]


def test_flat_shapes_cover_every_kind():
    """Every sub-plan has a flat form, the ones that were nested too."""
    for name in FUSION_SHAPES:
        plan = dataflow._flat_plan(build("source", name, FUSION_SHAPES).to_plan())
        assert len(plan.nodes) == len(plan.steps)
    nested = dataflow._flat_plan(build("source", "nested", FUSION_SHAPES).to_plan())
    assert [type(n).__name__ for n in nested.nodes] == ["GroupApplyNode"]
    exchange = dataflow._flat_plan(build("source", "exchange", FUSION_SHAPES).to_plan())
    assert [type(n).__name__ for n in exchange.nodes] == [
        "AlterLifetimeNode", "AggregateNode"
    ]
    assert set(BATCH_DIGESTS) == {
        f"{s}-{p}" for s in FUSION_SHAPES for p in PREFIXES
    }
    assert set(PUSH_DIGESTS) == {
        f"{s}-{p}" for s in FUSION_SHAPES if s not in DEFERRED for p in PREFIXES
    }


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(set(FUSION_SHAPES) - DEFERRED))
def test_flat_equals_nested_per_push(prefix, subplan):
    calls = push_calls(build(prefix, subplan, FUSION_SHAPES))
    assert digest(calls) == PUSH_DIGESTS[f"{subplan}-{prefix}"]


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
def test_flat_equals_nested_per_batch_call(prefix, subplan):
    calls = drive_in_batches(build(prefix, subplan, FUSION_SHAPES), wave_rows(2500))
    assert digest(calls) == BATCH_DIGESTS[f"{subplan}-{prefix}"]


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
def test_rows_per_batch_call(prefix, subplan):
    """Fed a source's rows, a keyed count or int sum runs in the array
    form; every call still releases what the events released."""
    calls = drive_in_batches(
        build(prefix, subplan, FUSION_SHAPES), wave_rows(2500), as_rows=True
    )
    assert digest(calls) == ROW_BATCH_DIGESTS[f"{subplan}-{prefix}"]


# -- a keyed root's column release ≡ per-key chains, call for call ----------
#
# Under the batch driver a keyed count or int sum at a flow's root keeps
# its segments as int64 rows from the sweep to the released ``Batch``
# (``GroupScheduler._release``); a chain per key releases events through
# the list sort. Each cell below runs both and compares every call. A
# wave threshold of 1 waves at every call whose chunk holds more than
# twice the keys.


def _tied_rows(copies=7):
    """Seven copies of three rows a chunk. Keys created a, b, c, idle by
    the next wave; re-activated c, a, b at a tie the wave after releases;
    then b, c, a at a tie only the flush releases."""
    def at(t, users):
        return [{"Time": t, "StreamId": 0, "UserId": u, "V": t % 7 - 3}
                for _ in range(copies) for u in users]
    return at(0, "abc") + at(10, "xyz") + at(20, "cab") + at(40, "def") + at(60, "bca")


def _tie_heavy_rows(n=1500, seed=5):
    """Many keys sharing each time, negative values among them."""
    rng = random.Random(seed)
    rows, now = [], 0
    for _ in range(n):
        now += rng.choice([0, 0, 0, 0, 1, 4, 9])
        rows.append({"Time": now, "StreamId": 0, "UserId": rng.randrange(9),
                     "V": rng.randrange(-5, 6)})
    return rows


def _late_chunk(change, start=900):
    """Tie-heavy rows with lifetimes of their own, ``change`` applied to
    every row from ``start`` on; a key fed once before it lives on and
    holds the group's watermark, so the column backlog is not empty."""
    rows = [{**row, "_re": row["Time"] + 1 + row["V"] % 4} for row in _tie_heavy_rows()]
    held = start - 200
    hold = {**rows[held], "UserId": "hold", "_re": rows[held]["Time"] + 1000}
    rows = [*rows[:held], hold, *rows[held:]]
    return rows[:start] + [{**row, **change(row)} for row in rows[start:]]


#: (rows, per-key plan, chunk, wave): tied LEs at a wave and at the
#: flush, a mid-stream input the array form cannot hold (``*-later``),
#: MAX_TIME REs behind a shift
COLUMN_CELLS = {
    "ties-count": (_tied_rows(), lambda g: g.window(5).count(into="n"), 21, 1),
    "ties-sum": (_tied_rows(), lambda g: g.window(5).sum("V", into="s"), 21, 1),
    "tie-heavy-sum": (_tie_heavy_rows(), lambda g: g.window(6).sum("V", into="s"), 40, 32),
    "tie-heavy-hop": (_tie_heavy_rows(), lambda g: g.hopping_window(9, 3).count(into="n"),
                      25, 1),
    "tie-heavy-shift": (_tie_heavy_rows(), lambda g: g.window(6).shift(2).sum("V", into="s"),
                        50, 64),
    "float-time-later": (_late_chunk(lambda r: {"Time": r["Time"] + 0.5}),
                         lambda g: g.sum("V", into="s"), 50, 64),
    "past-int64-later": (_late_chunk(lambda r: {"V": 2**62 + r["V"]}),
                         lambda g: g.sum("V", into="s"), 50, 64),
    "max-time-re-shift-back": (
        [{**row, "_re": MAX_TIME} if row["V"] > 2 else row for row in _tie_heavy_rows(600)],
        lambda g: g.shift(-3).sum("V", into="s"), 40, 1),
    "max-time-re-shift-on": (
        [{**row, "_re": MAX_TIME} if row["V"] > 2 else row for row in _tie_heavy_rows(600)],
        lambda g: g.shift(2, 5).count(into="n"), 40, 1),
}


@contextlib.contextmanager
def column_release_log():
    """Record each top-level keyed root's column releases (rows each)."""
    log = {"released": []}
    batch = keyed.KeyedAggregate.batch

    def recording_batch(self, segments):
        log["released"].append(len(segments))
        return batch(self, segments)

    with mock.patch.object(keyed.KeyedAggregate, "batch", recording_batch):
        yield log


def drive_until_unfit(query, rows, **kwargs):
    """:func:`drive_in_batches` over rows the array form cannot hold all
    of: the calls made before the one that raised, and what it raised."""
    calls = []
    kwargs.setdefault("as_rows", True)
    with pytest.raises(keyed.ArrayFormUnfit) as unfit:
        drive_in_batches(query, rows, calls=calls, **kwargs)
    return calls, unfit.value


#: the ``*-later`` cells: the ``advance`` call at which an input the array
#: form cannot hold arrives (where the node used to convert to chains)
UNFIT_AT = {"float-time-later": 18, "past-int64-later": 18, "float-watermark-later": 16}


@pytest.mark.parametrize("cell", sorted(COLUMN_CELLS))
def test_column_release_equals_the_loop_per_call(cell):
    rows, sub, chunk, wave = COLUMN_CELLS[cell]
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply("UserId", sub)
    with unfused_reference():
        loop = drive_in_batches(query, rows, chunk=chunk, wave=wave)
    with column_release_log() as log:
        if "later" in cell:  # every call up to the unfit input, which raises
            columns, _ = drive_until_unfit(query, rows, chunk=chunk, wave=wave)
            loop = loop[: UNFIT_AT[cell]]
        else:
            columns = drive_in_batches(query, rows, chunk=chunk, wave=wave, as_rows=True)
    assert len(columns) == len(loop) > 3
    for i, (got, want) in enumerate(zip(columns, loop)):
        assert got == want, f"call {i} of {len(loop)}"
    assert sum(log["released"]) > 0  # the array form released columns
    if "later" not in cell:
        assert sum(log["released"]) == sum(len(out) for out, _, _ in loop)


def test_ties_release_in_creation_order_at_the_flush():
    """A wave merges tied LEs in activation order (c, a, b re-activated
    at 20); the flush walks the keys in creation order (a, b, c), which
    the column release keeps."""
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply(
        "UserId", lambda g: g.window(5).count(into="n")
    )
    calls = drive_in_batches(query, _tied_rows(), chunk=21, wave=1, as_rows=True)

    def users(at):
        return [[dict(payload)["UserId"] for le, _, payload in out if le == at]
                for out, _, _ in calls]

    assert users(20) == [[], [], [], ["c", "a", "b"], [], []]  # the wave at 40
    assert users(60)[-1] == ["a", "b", "c"]  # the flush


# -- the array form's wave in columns ≡ the chains, call for call -------------
#
# Under the batch driver a keyed count or int sum keeps its keys'
# scheduling state as columns and runs each wave as array passes
# (``KeyedAggregate.wave``), the scheduler's two heaps as entry arrays.
# Each cell runs it against a flat chain per key (``unfused_reference``)
# and compares every call, ``next_wake`` and chain advances included.


def _returning_rows(rounds=12, seed=3):
    """Rounds 20 apart of a shuffled few of eight keys: a 5-long window
    idles every key between rounds, and each round re-activates its keys
    in a new order, behind the keys that stayed."""
    rng = random.Random(seed)
    rows = []
    for r in range(rounds):
        for user in rng.sample("abcdefgh", rng.randrange(2, 8)):
            rows.append({"Time": 20 * r + rng.randrange(3), "StreamId": 0, "UserId": user,
                         "V": rng.randrange(-2, 5)})
    return sorted(rows, key=lambda row: row["Time"])


def _shrinking_wake_rows():
    """Rows with lifetimes of their own: key ``k`` sleeps until its RE at
    100, then a row ending at 30 and one at 60 bring its wake time
    forward, leaving the wake entries at 100 and 60 stale; the other keys
    keep waves coming."""
    rows = [{"Time": t, "StreamId": 0, "UserId": "o%d" % (t % 3), "V": 1, "_re": t + 4}
            for t in range(0, 120, 2)]
    for t, re in ((1, 100), (11, 60), (21, 30)):
        rows.append({"Time": t, "StreamId": 0, "UserId": "k", "V": 2, "_re": re})
    return sorted(rows, key=lambda row: row["Time"])


def _many_keys_rows(n=3000, keys=40, seed=11):
    """Forty keys fed over and over, rows 30 long, behind a key fed once
    whose row lives on: it holds the group's watermark, so the stale
    entries the others leave on the heaps are never the least, and pile
    up until both heaps are rebuilt."""
    rng = random.Random(seed)
    rows = [{"Time": i // 4, "StreamId": 0, "UserId": rng.randrange(keys),
             "V": rng.randrange(3), "_re": i // 4 + 30} for i in range(n)]
    return [{"Time": 0, "StreamId": 0, "UserId": "hold", "V": 1, "_re": 10**6}, *rows]


def _running_ahead_rows(n=3000, keys=40, seed=13):
    """:func:`_many_keys_rows` with lifetimes of 3 to 40, to be fed ahead
    of the group's watermark: a key fed past its wake time drains that
    pane before the group reaches it, and its entry at that time stays
    on the wake heap, stale and least, until the group does."""
    rng = random.Random(seed)
    rows = [{"Time": i // 4, "StreamId": 0, "UserId": rng.randrange(keys),
             "V": rng.randrange(3), "_re": i // 4 + rng.choice([3, 8, 40])} for i in range(n)]
    return [{"Time": 0, "StreamId": 0, "UserId": "hold", "V": 1, "_re": 10**6}, *rows]


def _float_from(t):
    return lambda le: le - 0.5 if le > t else le


#: (rows, per-key plan, chunk, wave, mark): ``mark`` as in
#: :func:`drive_in_batches`; a cell named ``*-later`` meets an input the
#: array form cannot hold mid-stream (``UNFIT_AT``), after its columns
#: hold state
COLUMN_WAVE_CELLS = {
    "idle-and-back": (_returning_rows(40), lambda g: g.window(5).sum("V", into="s"), 6, 1,
                      None),
    "wake-decreases": (_shrinking_wake_rows(), lambda g: g.sum("V", into="s"), 3, 1, None),
    "rebuild": (_many_keys_rows(), lambda g: g.sum("V", into="s"), 40, 1, None),
    "rebuild-shift": (_many_keys_rows(), lambda g: g.shift(3).count(into="n"), 40, 1, None),
    "stale-wake-top": (_running_ahead_rows(), lambda g: g.sum("V", into="s"), 40, 1,
                       lambda le: le - 12),
    # no key holds the group back: the stale entries of the held heap
    # fall below its least live one and are dropped, which decides when
    # both heaps are rebuilt and so how long a stale wake top shows
    "stale-wake-top-no-hold": (_running_ahead_rows(keys=20)[1:],
                               lambda g: g.sum("V", into="s"), 40, 1, lambda le: le - 12),
    "stale-wake-top-shift": (_running_ahead_rows(), lambda g: g.shift(-2).count(into="n"),
                             40, 1, lambda le: le - 12),
    "lagging-watermark": (_tie_heavy_rows(), lambda g: g.window(6).shift(-2).count(into="n"),
                          30, 1, lambda le: le - 3),
    "float-time-later": (_late_chunk(lambda r: {"Time": r["Time"] + 0.5}),
                         lambda g: g.sum("V", into="s"), 50, 1, None),
    "past-int64-later": (_late_chunk(lambda r: {"V": 2**62 + r["V"]}),
                         lambda g: g.sum("V", into="s"), 50, 1, None),
    "float-watermark-later": (_tie_heavy_rows(), lambda g: g.window(6).count(into="n"), 30, 1,
                              _float_from(900)),
}


@contextlib.contextmanager
def counting_calls(cls, name):
    """How many times ``cls.name`` was called."""
    calls = [0]
    method = getattr(cls, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    with mock.patch.object(cls, name, counted):
        yield calls


@pytest.mark.parametrize("cell", sorted(COLUMN_WAVE_CELLS))
def test_column_wave_equals_the_chains_per_call(cell):
    rows, sub, chunk, wave, mark = COLUMN_WAVE_CELLS[cell]
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply("UserId", sub)
    with counting_calls(keyed.KeyedAggregate, "wave") as waves, \
            counting_calls(dataflow._FlatChain, "advance") as advances:
        if cell.endswith("-later"):  # every call up to the unfit input, which raises
            columns, _ = drive_until_unfit(query, rows, chunk=chunk, wave=wave, mark=mark)
        else:
            columns = drive_in_batches(query, rows, chunk=chunk, wave=wave, as_rows=True,
                                       mark=mark)
    with unfused_reference(), \
            counting_calls(dataflow.GroupScheduler, "_rebuild_heaps") as rebuilds:
        chains = drive_in_batches(query, rows, chunk=chunk, wave=wave, as_rows=True,
                                  mark=mark)
    if cell.endswith("-later"):
        chains = chains[: UNFIT_AT[cell]]
    assert len(columns) == len(chains) > 5
    for i, (got, want) in enumerate(zip(columns, chains)):
        assert got == want, f"call {i} of {len(chains)}"
    assert waves[0] > 3  # the waves ran in columns
    assert advances[0] == 0  # no key ever advanced a chain
    if cell.startswith("rebuild"):
        assert rebuilds[0] > 0


# -- the wave rule at the beginning of time ----------------------------------
#
# Two clauses of the array form's wave rule (``KeyedAggregate.wave``) bound
# only where a backward shift clamped a stage's watermark at MIN_TIME: the
# floor under each key's watermark, and the lagging-stage test of whether
# a key may sleep; each cell below failed without its clause. Every
# watermark now starts at its own position's floor, below MIN_TIME behind
# a backward shift, so nothing clamps and both clauses are gone: the cells
# hold the two forms equal per call where they bound.


def _near_min_time(seed=19, n=60, keys=4):
    """Rows from the beginning of time on, some with lifetimes of their own."""
    rng = random.Random(seed)
    t, rows = MIN_TIME + rng.randrange(0, 3), []
    for _ in range(n):
        t += rng.choice([0, 0, 1, 1, 2, 5])
        row = {"Time": t, "StreamId": 0, "UserId": rng.randrange(keys), "V": rng.randrange(-2, 4)}
        if rng.random() < 0.3:
            row["_re"] = t + rng.choice([1, 2, 8, 30])
        rows.append(row)
    return rows


def _at_min_time(t, user, n):
    return [{"Time": MIN_TIME + t, "StreamId": 0, "UserId": user, "V": 1} for _ in range(n)]


#: (rows, per-key plan, chunk), a wave every call
NEAR_MIN_TIME = {
    # a key's watermark would fall below the last one it reported
    "floor-clamp": (_near_min_time(), lambda g: g.shift(-6, -2).sum("V", into="s"), 9),
    # key ``a``'s pane opens past MIN_TIME and ends within the shift of
    # it, so the stage watermark clamps at MIN_TIME both now and just
    # short of the wake time: the key's watermark is frozen, and it sleeps
    "lagging-stage-wake": (
        _at_min_time(2, "a", 3) + _at_min_time(3, "b", 5) + _at_min_time(9, "b", 5),
        lambda g: g.shift(-3).hopping_window(3, 3).count(into="n"), 3,
    ),
}


@pytest.mark.parametrize("cell", sorted(NEAR_MIN_TIME))
def test_the_wave_rule_near_the_beginning_of_time(cell):
    rows, sub, chunk = NEAR_MIN_TIME[cell]
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply("UserId", sub)
    with counting_calls(keyed.KeyedAggregate, "wave") as waves:
        columns = drive_in_batches(query, rows, chunk=chunk, wave=1, as_rows=True)
    with unfused_reference():
        chains = drive_in_batches(query, rows, chunk=chunk, wave=1, as_rows=True)
    assert waves[0] > 1
    for i, (got, want) in enumerate(zip(columns, chains)):
        assert got == want, f"call {i} of {len(chains)}"


def test_a_pane_past_max_time_holds_a_chains_watermark():
    """A forward shift stretches a row's RE past MAX_TIME: the key's
    chain sleeps until the flush and holds the group watermark at its
    open segment's start, as the array form does, where it went idle and
    let the watermark pass a segment it released at the flush."""
    query = Query.source("logs", ("UserId", "V")).group_apply(
        "UserId", lambda g: g.shift(2, 5).count(into="n")
    )
    rows = [{"Time": 1, "UserId": "a", "V": 1, "_re": MAX_TIME}] + [
        {"Time": t, "UserId": "b", "V": 1} for t in range(2, 40, 3)
    ]
    engine, mark, out = StreamingEngine(query), MIN_TIME, []
    for row in rows + [None]:
        released = engine.push("logs", dict(row)) if row else engine.flush()
        assert all(e.le >= mark for e in released)
        mark = engine.output_watermark
        out.extend(released)
    assert [e.le for e in out if e.payload["UserId"] == "a"] == [3]
    assert engine.output_watermark >= MAX_TIME


#: name -> (why, rows, per-key plan, mark, call): each meets an input the
#: array form cannot hold at ``advance`` call ``call`` (where the node used
#: to convert to chains), with chunks staged since the last wave (a
#: threshold of 256 waves every sixth chunk) and, but the last, a backlog
#: the ``hold`` key keeps
CONVERSIONS = {
    "float-time": (keyed.TIME_NOT_INT, _late_chunk(lambda r: {"Time": r["Time"] + 0.5}, 1000),
                   lambda g: g.sum("V", into="s"), None, 20),
    "float-sum": (keyed.SUM_NOT_INT, _late_chunk(lambda r: {"V": r["V"] + 0.5}, 1000),
                  lambda g: g.shift(1).sum("V", into="s"), None, 20),
    "past-int64": (keyed.PAST_BOUNDS, _late_chunk(lambda r: {"V": 2**62 + r["V"]}, 1000),
                   lambda g: g.shift(-2).sum("V", into="s"), None, 20),
    # long enough for a wave of ``Engine.run``'s threshold
    "float-watermark": (keyed.WATERMARK_NOT_INT, _tie_heavy_rows(6000),
                        lambda g: g.window(6).count(into="n"), _float_from(900), 11),
}

#: ``Engine.run``'s output per ``CONVERSIONS`` cell, when the node converted
#: to chains mid-run; the re-run must give it byte for byte
CONVERSION_DIGESTS = {
    "float-sum": "b9908d09505666b3",
    "float-time": "75fcc82a8b41b474",
    "float-watermark": "83a440d27edd148f",
    "past-int64": "32f1f53295e3e545",
}


def conversion_run(cell, root):
    """``(query, sources)`` of a ``CONVERSIONS`` cell for ``Engine.run``,
    the GroupApply at the root or under a ``where``. A float watermark
    comes from another source: float times, read by no GroupApply."""
    _, rows, sub, mark, _ = CONVERSIONS[cell]
    logs, sources = Query.source("logs", ("StreamId", "UserId", "V")), {"logs": rows}
    if mark is not None:
        clock = Query.source("clock", ("StreamId", "UserId", "V")).where(lambda p: False)
        logs = logs.union(clock)
        sources["clock"] = [{"Time": t + 0.5, "StreamId": 0, "UserId": "c", "V": 0}
                            for t in range(900, rows[-1]["Time"])]
    query = logs.group_apply("UserId", sub)
    return (query if root else query.where(lambda p: True)), sources


def output_digest(out):
    """Output events to the byte: lifetimes, then payload items in order."""
    rows = [(e.le, e.re, list(e.payload.items())) for e in out]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("root", [True, False], ids=["root", "under-a-where"])
@pytest.mark.parametrize("cell", sorted(CONVERSIONS))
def test_a_conversion_to_chains_equals_the_chains_per_call(cell, root):
    """A node that meets an input the array form cannot hold — at a
    flow's root, or under a ``where`` — raises ``ArrayFormUnfit`` with
    its reason at that call, every call before it the chains'.
    ``Engine.run`` runs the plan again with every GroupApply on chains:
    the output is the chains' to the byte and the oracle's, the run is
    one named resolution, and what the aborted attempt counted or traced
    is not kept."""
    reason, rows, sub, mark, at = CONVERSIONS[cell]
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply("UserId", sub)
    if not root:
        query = query.where(lambda p: True)
    calls, unfit = drive_until_unfit(query, rows, chunk=50, wave=256, mark=mark)
    with unfused_reference():
        want = drive_in_batches(query, rows, chunk=50, wave=256, as_rows=True, mark=mark)
    assert unfit.reason == reason and len(calls) == at
    for i, (a, b) in enumerate(zip(calls, want)):
        assert a == b, f"call {i} of {at}"

    query, sources = conversion_run(cell, root)
    tracer = Tracer()
    engine = Engine(context=RunContext(tracer=tracer))
    got = engine.run(query, sources)
    with unfused_reference():
        chains = Engine().run(query, sources)
    assert output_digest(got) == output_digest(chains) == CONVERSION_DIGESTS[cell]
    events = {name: rows_to_events(part) for name, part in sources.items()}
    assert normalize(got) == normalize(ref_plan(query.to_plan(), events))
    stats = engine.last_stats
    found = stats.resolutions[keyed.RERUN_ON_CHAINS]
    assert found["count"] == 1 and reason in found["reason"]
    (node,) = [k for k in engine_module.plan_node_keys(query.to_plan()).values()
               if k.endswith(".group-apply")]
    assert found["reason"].startswith(f"{node}: a GroupApply by UserId met an input")
    assert stats.decoded_rows == stats.input_events == sum(map(len, sources.values()))
    assert stats.array_swept_rows == 0
    names = [span.name for span in tracer.finished()]
    operators = [n for n in topological_order(query.to_plan()) if n.inputs]
    assert names.count("engine.run") == 1
    assert len([n for n in names if n.startswith("engine.") and n != "engine.run"]) == len(
        operators)


def test_a_float_sum_through_timr_runs_again_on_chains():
    """A TiMR reducer's ``Engine.run`` meets a float value after its keyed
    sum has staged int rows: the reducer's run goes again on chains, and
    the job's output is the oracle's."""
    _, rows, sub, _, _ = CONVERSIONS["float-sum"]
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply("UserId", sub)
    fs = DistributedFileSystem()
    fs.write("logs", rows, require_time_column=False)
    engines = []
    run_engine = Engine.run

    def recording(self, *args, **kwargs):
        out = run_engine(self, *args, **kwargs)
        engines.append(self.last_stats)
        return out

    with mock.patch.object(Engine, "run", recording):
        result = TiMR(Cluster(fs=fs)).run(query, job_name="float-sum")
    assert any(keyed.RERUN_ON_CHAINS in stats.resolutions for stats in engines)
    want = ref_plan(query.to_plan(), {"logs": rows_to_events(rows)})
    assert normalize(rows_to_events(result.output_rows())) == normalize(want)


def test_nothing_carries_the_array_form_over_to_chains():
    """The retry leaves no conversion behind: no method that moved the
    array form's state into chains, and ``keyed.py`` sets no attribute of
    the scheduler (the array form owns its ordinals, advances and idle
    delta)."""
    gone = {dataflow.GroupScheduler: ["_to_chains", "converted", "converted_rows"],
            keyed.KeyedAggregate: ["carried", "chain_state", "fed"],
            SnapshotAggregate: ["resume"]}
    for cls, names in gone.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    node = build("source", "sum", FUSION_SHAPES).to_plan()
    array_form = dataflow._keyed_aggregate(node, dataflow._flat_plan(node))
    assert not hasattr(array_form, "fed")
    tree = ast.parse(inspect.getsource(keyed))
    assigned = [t for n in ast.walk(tree) if isinstance(n, (ast.Assign, ast.AugAssign))
                for t in (n.targets if isinstance(n, ast.Assign) else [n.target])]
    owners = {t.value.id for a in assigned for t in ast.walk(a)
              if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)}
    assert owners <= {"self"}, owners


def test_a_nested_group_apply_reads_events():
    """An inner GroupApply is fed its outer key's events inside the outer
    key's chain, so it runs a chain per inner key under the batch driver
    too: the array form is a flow's own GroupApply's."""
    query = build("source", "nested", FUSION_SHAPES)
    rows = wave_rows(1200)
    with counting_calls(keyed.KeyedAggregate, "wave") as waves:
        columns = drive_in_batches(query, rows, chunk=40, wave=64, as_rows=True)
    with unfused_reference():
        chains = drive_in_batches(query, rows, chunk=40, wave=64, as_rows=True)
    assert columns == chains
    assert waves[0] == 0
    flow = Dataflow(query.to_plan(), group_wave_events=64)
    les, view = engine_module._source(rows)
    flow.feed("logs", view(0, len(rows)), les[-1])
    flow.advance()
    (outer,) = flow.group_schedulers()
    inner = [chain.ops[-1] for chain in outer._groups.values()]
    assert inner and {op._keyed for op in inner} == {None}
    assert all(type(c) is dataflow._FlatChain for op in inner for c in op._groups.values())


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
    ``Dataflow`` for the whole query (a nested flow per key built one
    more per user), and 2,112 chain advances on the ``stream_push``
    seed-0 rows, where a chain fed the group's watermark made ~30k."""
    script = [("push", row) for row in bot_rows(200, 1800)]
    flows, (_, advances) = count_flows(lambda: drive(bot_query(), script, wakes=True))
    assert flows == 1
    assert advances == 2112


@pytest.mark.parametrize(
    "stream, advances", [(KEYWORD, 2107), (CLICK, 2005)], ids=["keyword", "click"]
)
def test_keyed_count_behind_a_hop_sleeps_as_the_nested_flow(stream, advances):
    """A hopping window hands each key LEs ahead of the group watermark;
    a key's chain takes the key's own input watermark as a nested flow
    per key did, so its holds bind and it advances as seldom: 2,107 /
    2,005 times, as the nested flow did (a keyed sweep fed only the
    group's watermark advanced 28,301 / 3,889 times)."""
    cfg = BTConfig(min_support=2, z_threshold=1.0)
    query = (
        Query.source("logs", UNIFIED_COLUMNS)
        .hopping_window(cfg.bot_window, cfg.bot_hop)
        .group_apply(
            "UserId", lambda g: g.where_equals("StreamId", stream).count(into="n")
        )
    )
    script = [("push", row) for row in bot_rows(200, 1800)]
    _, keyed_advances = drive(query, script, wakes=True)
    assert keyed_advances == advances


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
# A key chain's aggregate holds an expiry heap of distinct REs and a pane
# per RE (docs/OPERATORS.md, hopping window): a folded partial for count /
# sum / avg / stddev, the payloads for the rest. Shown as counts, not
# clocks, per push-sized wave (``group_wave_events=0``), where every keyed
# node runs chains.


class _CountingHeapq:
    """``heapq`` as the endpoint sweep (``operators/aggregate.py``) sees
    it, pushes counted."""

    def __init__(self):
        self.pushes = 0
        self.heappop = heapq.heappop

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)


def pane_state(subplan, rows):
    """Drive ``rows`` in chunks, a wave each, up to, not including, the
    flush: ``(aggregate heap pushes, input payloads still referenced from
    aggregate state, output)``. The aggregate state is the panes and fold
    of each key chain's aggregate."""
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
    with mock.patch.object(aggregate, "heapq", counting):
        flow = Dataflow(query.to_plan())
        out = []
        for i in range(0, len(events), 50):
            chunk = events[i : i + 50]
            flow.feed("logs", chunk, chunk[-1].le)
            out.extend(flow.advance())
        (node,) = flow.group_schedulers()
        states = [chain.ops[-1] for chain in node._groups.values()]
        retained = sum(payloads_under([st._panes, st._fold]) for st in states)
        live = sum(len(st._pending) for st in states)
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
