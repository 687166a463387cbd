"""A source of rows ≡ the same source decoded to events first.

``Engine.run`` takes a source as ``Event`` objects or as M-R rows
(``Time``, an optional ``_re``, the payload columns). Whatever a run
does with rows internally, each cell below must give what it gives for
``point_events(rows)``, the codec's own decode: the same output events
in the same order with the same payload column order, the same
``last_stats.operator_events`` and the same ``Dataflow.chain_advances``.

The cells are every ``FUSION_SHAPES`` × ``PREFIXES`` GroupApply of
``test_wake_scheduling.py`` (the keyed sweep, flat chains, nested
GroupApply, deferred rewrites), the same sub-plans behind the shift and
hop chains of ``SHIFT_CHAINS``, and every one-source ``TOP_SHAPES`` cell
of ``test_top_level.py``, over point rows and over rows where some
carry an ``_re``, in the default batch size and in small batches. Two
sources (``TOP_SHAPES``' joins, one source empty or ending early, and a
keyed sweep beside a filter) and a multi-input TiMR reducer over
``_src``-tagged rows take the same comparison, also with LE ties
straddling every chunk cut and in batches of one.
"""

import contextlib
import copy
import heapq
from itertools import islice
from operator import itemgetter
from unittest import mock

import pytest

from repro.runtime import RunContext
from repro.temporal import Engine, Query
from repro.temporal import engine as engine_module
from repro.temporal.event import SRC_COLUMN, events_to_rows, point_events
from repro.timr import compile as timr_compile
from repro.timr import make_fragments, make_reducer
from tests.runtime.test_top_level import TOP_SHAPES, top_sources
from tests.runtime.test_wake_scheduling import (
    FUSION_SHAPES,
    PREFIXES,
    build,
    unfused_reference,
    wave_rows,
)


def ordered(events):
    """Each event with its payload's column order spelled out."""
    return [(e.le, e.re, list(e.payload.items())) for e in events]


def interval_rows(n):
    """:func:`wave_rows` where every third row carries an ``_re``."""
    rows = wave_rows(n)
    for i, row in enumerate(rows[::3]):
        row["_re"] = row["Time"] + 1 + i % 5
    return rows


ROWS = {"points": lambda: wave_rows(2500), "intervals": lambda: interval_rows(2500)}
BATCHES = {"default": None, "small": 97}


@contextlib.contextmanager
def recorded_flows(flows):
    """Keep every ``Dataflow`` an ``Engine.run`` builds."""
    build_flow = engine_module.Dataflow

    def recording(*args, **kwargs):
        flows.append(build_flow(*args, **kwargs))
        return flows[-1]

    with mock.patch.object(engine_module, "Dataflow", recording):
        yield


def run(query, sources, batch):
    """``(output, operator events, chain advances)`` of one run."""
    context = RunContext() if batch is None else RunContext(batch_size=batch)
    engine = Engine(context=context)
    flows = []
    with recorded_flows(flows):
        out = engine.run(query, sources, validate=False)
    (flow,) = flows
    return ordered(out), engine.last_stats.operator_events, flow.chain_advances


def assert_rows_equal_events(build_query, sources, batch):
    as_rows = run(build_query(), sources, batch)
    as_events = run(
        build_query(),
        {name: point_events(rows) for name, rows in sources.items()},
        batch,
    )
    assert as_rows == as_events
    return as_rows


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("rows", sorted(ROWS))
@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
def test_group_apply_over_rows_equals_over_events(subplan, prefix, rows, batch):
    out, _, advances = assert_rows_equal_events(
        lambda: build(prefix, subplan, FUSION_SHAPES), {"logs": ROWS[rows]()},
        BATCHES[batch],
    )
    assert out and advances


ONE_SOURCE = sorted(
    name for name in TOP_SHAPES if len(top_sources(name, wave_rows(200))) == 1
)


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("rows", sorted(ROWS))
@pytest.mark.parametrize("name", ONE_SOURCE)
def test_top_level_over_rows_equals_over_events(name, rows, batch):
    out, _, _ = assert_rows_equal_events(
        TOP_SHAPES[name][0], top_sources(name, ROWS[rows]()), BATCHES[batch]
    )
    assert out


def test_the_one_source_cells_are_the_expected_ones():
    assert ONE_SOURCE == [
        "bare-source", "bot-elimination", "custom-lifetime", "exchange-where",
        "group-then-where", "keyed-root", "multicast", "union-of-wheres",
    ]


# -- lifetime rewrites ahead of the aggregate --------------------------------------
#
# Each chain opens a GroupApply's sub-plan, ahead of every ``FUSION_SHAPES``
# sub-plan, so a keyed sweep fed from the source meets it first.

SHIFT_CHAINS = {
    # KE-z's per-keyword and total counts: one tick forward, then a hop
    # of the horizon
    "shift-hop": lambda g: g.shift(1).hopping_window(8, 8),
    "hop-shift": lambda g: g.hopping_window(8, 4).shift(2),
    # Figure 12's clicks: LE moved into the past, RE kept
    "shift-le-back": lambda g: g.shift(-3, 0),
    # the RE moves less than the LE: every lifetime of two ticks or
    # fewer, each point among them, is emptied and dropped
    "shift-emptying": lambda g: g.shift(1, -1),
}


def chained(chain, subplan):
    return {"chained": lambda g: FUSION_SHAPES[subplan](SHIFT_CHAINS[chain](g))}


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("rows", sorted(ROWS))
@pytest.mark.parametrize("chain", sorted(SHIFT_CHAINS))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
def test_rewrite_chains_over_rows_equal_over_events(subplan, chain, rows, batch):
    """Also ≡ per-key flat chains over the events, which run the
    rewrites' own functions where the keyed sweep computes lifetimes
    off columns."""
    query = lambda: build("source", "chained", chained(chain, subplan))
    source = ROWS[rows]()
    got = assert_rows_equal_events(query, {"logs": source}, BATCHES[batch])
    with unfused_reference():
        assert got == run(query(), {"logs": point_events(source)}, BATCHES[batch])
    out, _, advances = got
    assert advances
    if chain != "shift-emptying" or rows == "intervals":
        assert out or subplan == "where-first"


# -- several sources ---------------------------------------------------------------


def tied_rows(n):
    """Rows seven to a ``Time``, both streams at every one: with any
    batch size but one of seven, LE ties straddle the chunk cuts."""
    return [
        {"Time": i // 7, "StreamId": i % 3 % 2, "UserId": i % 5, "V": i % 4}
        for i in range(n)
    ]


def view_interval_rows(n):
    """:func:`wave_rows` where every third view (``StreamId`` 0) carries
    an ``_re``: an anti-semi-join takes points on its left."""
    rows = wave_rows(n)
    for i, row in enumerate(r for r in rows if not r["StreamId"]):
        if i % 3 == 0:
            row["_re"] = row["Time"] + 1 + i % 5
    return rows


MULTI_ROWS = {
    "points": lambda: wave_rows(2500),
    "intervals": lambda: view_interval_rows(2500),
    "ties": lambda: tied_rows(2500),
}
MULTI_BATCHES = {"default": None, "small": 97, "one": 1}


def _keyed_beside_where():
    """A keyed count over one source, read straight off it, unioned
    with a filter over the other."""
    clicks = Query.source("clicks", ("StreamId", "UserId", "V"))
    views = Query.source("views", ("StreamId", "UserId", "V"))
    counted = clicks.group_apply("UserId", lambda g: g.window(7).count(into="n"))
    return counted.union(views.where(lambda p: p["V"] > 1).project(lambda p: {"n": p["V"]}))


#: two-source plans: ``TOP_SHAPES``' joins (an anti-semi-join, a union,
#: one source empty, one ending early) and a keyed sweep beside a filter
MULTI_SHAPES = {
    name: TOP_SHAPES[name][0] for name in ("joins", "joins-no-views", "joins-views-end-early")
}
MULTI_SHAPES["keyed-beside-where"] = _keyed_beside_where


def multi_sources(name, rows):
    feed = TOP_SHAPES["joins"][1]
    if name != "keyed-beside-where":
        return top_sources(name, rows)
    sources = {"clicks": [], "views": []}
    for routed in map(feed, (dict(row) for row in rows)):
        sources[routed[0]].append(routed[1])
    return sources


@pytest.mark.parametrize("batch", sorted(MULTI_BATCHES))
@pytest.mark.parametrize(
    "name, rows",
    # with no views every row is a click: a left input of points only
    [(n, r) for n in sorted(MULTI_SHAPES) for r in sorted(MULTI_ROWS)
     if (n, r) != ("joins-no-views", "intervals")],
)
def test_two_sources_over_rows_equal_over_events(name, rows, batch):
    sources = multi_sources(name, MULTI_ROWS[rows]())
    assert len(sources) == 2
    out, _, _ = assert_rows_equal_events(MULTI_SHAPES[name], sources, MULTI_BATCHES[batch])
    assert out


def reducer_partition(tags, rows):
    """``rows`` as one reduce partition of a multi-input stage, in
    ``Time`` order: a click (``StreamId`` 1) tagged with the first
    input, a view with the second."""
    return [{**row, SRC_COLUMN: tags[1 - row["StreamId"]]} for row in rows]


def _reducer_fragment(kind):
    a = Query.source("a", ("StreamId", "UserId", "V")).exchange("UserId")
    b = Query.source("b", ("StreamId", "UserId", "V")).exchange("UserId")
    if kind == "join":
        q = a.temporal_join(b.window(6), on="UserId").union(
            a.anti_semi_join(b.window(6), on="UserId")
        )
    else:
        q = a.group_apply("UserId", lambda g: g.shift(1).hopping_window(8, 8).count(into="n"))
        q = q.union(b.where(lambda p: p["V"] > 1).project(lambda p: {"n": p["V"]}))
    (fragment,) = make_fragments(q.to_plan(), "j")
    return fragment


def reduce_with(fragment, partition, batch):
    """``(output rows, operator events, chain advances)`` of the
    generated reducer over one partition."""
    context = RunContext() if batch is None else RunContext(batch_size=batch)
    engines = []

    class Recording(Engine):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            engines.append(self)

    flows = []
    with mock.patch.object(timr_compile, "Engine", Recording), recorded_flows(flows):
        out = make_reducer(fragment, context=context)(0, partition)
    (engine,), (flow,) = engines, flows
    return (
        [list(row.items()) for row in out],
        engine.last_stats.operator_events,
        flow.chain_advances,
    )


def reduce_decoded(fragment, partition, batch):
    """What the reducer gives when its sources are the partition decoded
    with ``point_events`` and split by the ``_src`` each payload loses."""
    context = RunContext() if batch is None else RunContext(batch_size=batch)
    sources = {name: [] for name in fragment.input_names}
    for e in point_events(partition):
        sources[e.payload.pop(SRC_COLUMN)].append(e)
    engine = Engine(context=context)
    flows = []
    with recorded_flows(flows):
        out = engine.run(fragment.root, sources, validate=False)
    (flow,) = flows
    return (
        [list(row.items()) for row in events_to_rows(out)],
        engine.last_stats.operator_events,
        flow.chain_advances,
    )


@pytest.mark.parametrize("batch", sorted(MULTI_BATCHES))
@pytest.mark.parametrize("rows", sorted(MULTI_ROWS))
@pytest.mark.parametrize("kind", ["join", "keyed"])
def test_tagged_reducer_equals_its_sources_decoded(kind, rows, batch):
    fragment = _reducer_fragment(kind)
    assert fragment.input_names == ["a", "b"]
    partition = reducer_partition(fragment.input_names, MULTI_ROWS[rows]())
    snapshot = copy.deepcopy(partition)
    got = reduce_with(fragment, partition, MULTI_BATCHES[batch])
    assert partition == snapshot
    assert got == reduce_decoded(fragment, partition, MULTI_BATCHES[batch])
    assert got[0]


def engine_feeds(query, sources, batch):
    """Every ``feed`` (source, events) and CTI ``Engine.run`` hands its
    flow, in order, up to its flush."""
    calls = []
    build_flow = engine_module.Dataflow

    class Recording(build_flow):
        def feed(self, name, events, *args, **kwargs):
            calls.append(("feed", name, ordered(events)))
            return super().feed(name, events, *args, **kwargs)

        def set_watermarks(self, watermark):
            calls.append(("cti", watermark))
            return super().set_watermarks(watermark)

        def flush(self):
            calls.append(("flush",))
            return super().flush()

    context = RunContext() if batch is None else RunContext(batch_size=batch)
    with mock.patch.object(engine_module, "Dataflow", Recording):
        Engine(context=context).run(query, sources, validate=False)
    return calls[: calls.index(("flush",)) + 1]


def heap_merge_feeds(sources, batch):
    """The feeds and CTIs of the merge ``Engine.run`` ran when it merged
    several sources as decoded events, one at a time, with
    ``heapq.merge``: the next ``batch_size`` of ``(LE, source slot,
    event)``, ties in slot order, fed per source in the order of its
    first event, the watermark the last LE."""
    chunk_size = batch or RunContext().batch_size
    names = list(sources)
    streams = [
        [(e.le, slot, e) for e in sorted(point_events(rows), key=lambda e: e.le)]
        for slot, rows in enumerate(sources.values())
    ]
    merged = heapq.merge(*streams, key=itemgetter(0))
    calls = []
    while True:
        chunk = list(islice(merged, chunk_size))
        if not chunk:
            return calls + [("flush",)]
        per_source = {}
        for _, slot, e in chunk:
            per_source.setdefault(slot, []).append(e)
        calls.extend(("feed", names[slot], ordered(events)) for slot, events in per_source.items())
        calls.append(("cti", chunk[-1][0]))


@pytest.mark.parametrize("batch", sorted(MULTI_BATCHES))
@pytest.mark.parametrize(
    "name, rows",
    [(n, r) for n in sorted(MULTI_SHAPES) for r in sorted(MULTI_ROWS)
     if (n, r) != ("joins-no-views", "intervals")],
)
def test_chunks_are_the_heap_merges(name, rows, batch):
    """Cut by bisection, the chunks of several sources are the ones the
    heap merge of decoded events cut: the same views, fed in the same
    order, behind the same watermarks."""
    sources = multi_sources(name, MULTI_ROWS[rows]())
    want = heap_merge_feeds(sources, MULTI_BATCHES[batch])
    assert engine_feeds(MULTI_SHAPES[name](), sources, MULTI_BATCHES[batch]) == want
    assert len(want) > 2
