"""The top level of a plan, per call: sources, multicast, joins and roots.

Every cell of ``BATCH_DIGESTS`` / ``PUSH_DIGESTS`` in
``test_wake_scheduling.py`` is one source feeding one GroupApply, so
those tables pin what a flow does per key, not how its top level hands
output from node to node. ``TOP_SHAPES`` are plans whose top level is
the point: a bare source, an Exchange, a multicast, unions, two named
sources joined (one of them empty, or ending before the other), a
GroupApply followed by a stage next to a keyed GroupApply root, a
deferred rewrite and the paper's bot elimination. For each, the tables
below hold a digest of every call's releases, output watermark,
``next_wake`` and chain-advance count under ``drive_in_batches`` and
two fixed push scripts, and ``Engine.last_stats.operator_events`` of an
``Engine.run``. They were recorded with ``tests/runtime/record_digests.py``
(``make record-digests``) while the top level still ran as a graph of
nodes walked in topological order, before it became a flat chain
(EXPERIMENTS.md, "One plan interpreter").
"""

from unittest import mock

import pytest

from repro.bt.queries import UNIFIED_COLUMNS, bot_elimination_query
from repro.bt.schema import CLICK, KEYWORD, BTConfig
from repro.runtime import dataflow
from repro.temporal import Engine, Query, StreamingEngine
from repro.temporal.plan import source_nodes
from tests.runtime.test_wake_scheduling import (
    FUSION_SHAPES,
    build,
    digest,
    drive_in_batches,
    push_calls,
    to_logs,
    wave_rows,
)

COLUMNS = ("StreamId", "UserId", "V")


def _logs():
    return Query.source("logs", COLUMNS)


def _joins():
    """Clicks joined with the views of the last 6 ticks, and the clicks
    with none, unioned: two named sources, each read twice."""
    clicks = Query.source("clicks", COLUMNS)
    views = Query.source("views", COLUMNS)
    seen = clicks.temporal_join(views.window(6), on=("UserId",))
    unseen = clicks.anti_semi_join(views.window(6), on=("UserId",))
    return seen.union(unseen)


def _clicks_and_views(row):
    return ("clicks" if row["StreamId"] else "views"), row


def _clicks_only(row):
    return "clicks", row


def _views_end_early(row):
    if row["StreamId"]:
        return "clicks", row
    return ("views", row) if row["Time"] < 100 else None


#: bot elimination at the scale of the fixed scripts' clocks
BOT_CONFIG = BTConfig(
    bot_window=40, bot_hop=10, bot_click_threshold=3, bot_search_threshold=4
)


def _bot_row(row):
    return "logs", {
        "Time": row["Time"],
        "StreamId": (KEYWORD, CLICK)[row["StreamId"]],
        "UserId": row["UserId"],
        "KwAdId": row["V"],
    }


def _count_per_user(g):
    return g.window(7).count(into="n")


#: name -> ``(plan function, feed)``; ``feed(row)`` is ``(source, row)``,
#: or ``None`` to leave the row out
TOP_SHAPES = {
    "bare-source": (_logs, to_logs),
    "exchange-where": (
        lambda: _logs().exchange("UserId").where(lambda p: p["V"] > 0), to_logs
    ),
    # two SourceNode objects with one name: both read every feed
    "multicast": (
        lambda: _logs().union(_logs().where(lambda p: p["V"] > 1).shift(-2)),
        to_logs,
    ),
    # one SourceNode read by two branches
    "union-of-wheres": (
        lambda: (lambda s: s.where(lambda p: p["StreamId"] == 1).union(
            s.where(lambda p: p["StreamId"] == 0).window(3)
        ))(_logs()),
        to_logs,
    ),
    "joins": (_joins, _clicks_and_views),
    "joins-no-views": (_joins, _clicks_only),
    "joins-views-end-early": (_joins, _views_end_early),
    # a GroupApply with a stage after it releases events ...
    "group-then-where": (
        lambda: _logs().group_apply("UserId", _count_per_user).where(
            lambda p: p["n"] > 1
        ),
        to_logs,
    ),
    # ... and a keyed GroupApply root, rows
    "keyed-root": (lambda: _logs().group_apply("UserId", _count_per_user), to_logs),
    # an unbounded rewrite at the top level: buffered until the flush
    "custom-lifetime": (
        lambda: _logs().alter_lifetime(
            lambda le, re: le, lambda le, re: le + 4
        ).count(into="n"),
        to_logs,
    ),
    "bot-elimination": (
        lambda: bot_elimination_query(
            Query.source("logs", UNIFIED_COLUMNS), BOT_CONFIG
        ),
        _bot_row,
    ),
}

#: top-level cells with an unbounded rewrite: batch only
TOP_DEFERRED = {"custom-lifetime"}


def top_batch_calls(name):
    build_plan, feed = TOP_SHAPES[name]
    return drive_in_batches(build_plan(), wave_rows(2500), feed=feed)


def top_push_calls(name):
    build_plan, feed = TOP_SHAPES[name]
    return push_calls(build_plan(), feed)


def top_sources(name, rows):
    """``rows`` split per source of the cell's plan, every source present."""
    build_plan, feed = TOP_SHAPES[name]
    plan = build_plan().to_plan()
    sources = {node.name: [] for node in source_nodes(plan)}
    for routed in map(feed, (dict(row) for row in rows)):
        if routed is not None:
            sources[routed[0]].append(routed[1])
    return sources


def top_operator_events(name):
    engine = Engine()
    engine.run(TOP_SHAPES[name][0](), top_sources(name, wave_rows(2500)), validate=False)
    return dict(engine.last_stats.operator_events)


def nested_chain_advances(subplan, n=3000):
    """``(top-level, nested)`` chain advances of pushing ``wave_rows(n)``
    through ``subplan`` one row at a time: ``Dataflow.chain_advances``
    counts the first, every other ``GroupScheduler`` the second."""
    schedulers = []
    init = dataflow.GroupScheduler.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        schedulers.append(self)

    with mock.patch.object(dataflow.GroupScheduler, "__init__", tracking_init):
        engine = StreamingEngine(build("source", subplan, FUSION_SHAPES))
        for row in wave_rows(n):
            engine.push("logs", row)
        engine.flush()
    top = engine._flow.chain_advances
    return top, sum(s.chain_advances for s in schedulers) - top


#: ``drive_in_batches`` over ``wave_rows(2500)`` per cell
TOP_BATCH_DIGESTS = {
    "bare-source": "ae7ae88cb053ba28",
    "bot-elimination": "055986ee66cb0227",
    "custom-lifetime": "a3d30d0ba410568e",
    "exchange-where": "b657113d18a88799",
    "group-then-where": "ea3d747bba020de7",
    "joins": "60695f7536459d59",
    "joins-no-views": "0903c72d38c7e995",
    "joins-views-end-early": "4e2db94b3db89c58",
    "keyed-root": "2c90a9939f83b1fe",
    "multicast": "0a133abe0d131dc0",
    "union-of-wheres": "0a43e62cde77b11e",
}

#: ``drive`` of the two fixed scripts (slack 0 and 4) per streamable cell
TOP_PUSH_DIGESTS = {
    "bare-source": "a9b4979b0d5a98d6",
    "bot-elimination": "08a77f69d1706e4b",
    "exchange-where": "aa845913bbcfecc5",
    "group-then-where": "c57c0bccb7336c49",
    "joins": "1741a1149ef76268",
    "joins-no-views": "b4b5b5fee10887be",
    "joins-views-end-early": "e8aaa310f651336f",
    "keyed-root": "431f5f5a507e6524",
    "multicast": "e0bb78d2f394ad00",
    "union-of-wheres": "98411d49810898ca",
}

#: ``Engine.run`` over ``wave_rows(2500)``: events out of each plan node
TOP_OPERATOR_EVENTS = {
    "bare-source": {
        "000.source": 2500,
    },
    "bot-elimination": {
        "000.source": 2500,
        "001.alter-lifetime": 2500,
        "002.group-apply": 206,
        "003.anti-semi-join": 2312,
    },
    "custom-lifetime": {
        "000.source": 2500,
        "001.alter-lifetime": 2500,
        "002.aggregate": 2359,
    },
    "exchange-where": {
        "000.source": 2500,
        "001.exchange": 2500,
        "002.where": 1861,
    },
    "group-then-where": {
        "000.source": 2500,
        "001.group-apply": 3161,
        "002.where": 1056,
    },
    "joins": {
        "000.source": 1221,
        "001.source": 1279,
        "002.alter-lifetime": 1279,
        "003.temporal-join": 274,
        "004.alter-lifetime": 1279,
        "005.anti-semi-join": 986,
        "006.union": 1260,
    },
    "joins-no-views": {
        "000.source": 2500,
        "001.source": 0,
        "002.alter-lifetime": 0,
        "003.temporal-join": 0,
        "004.alter-lifetime": 0,
        "005.anti-semi-join": 2500,
        "006.union": 2500,
    },
    "joins-views-end-early": {
        "000.source": 1221,
        "001.source": 44,
        "002.alter-lifetime": 44,
        "003.temporal-join": 14,
        "004.alter-lifetime": 44,
        "005.anti-semi-join": 1209,
        "006.union": 1223,
    },
    "keyed-root": {
        "000.source": 2500,
        "001.group-apply": 3161,
    },
    "multicast": {
        "000.source": 2500,
        "001.source": 2500,
        "002.where": 1235,
        "003.alter-lifetime": 1235,
        "004.union": 3735,
    },
    "union-of-wheres": {
        "000.source": 2500,
        "001.where": 1221,
        "002.where": 1279,
        "003.alter-lifetime": 1279,
        "004.union": 2500,
    },
}

#: :func:`nested_chain_advances`: the inner schedulers' work, which
#: ``Dataflow.chain_advances`` and so no digest above counts
NESTED_CHAIN_ADVANCES = {
    "nested": (5538, 5762),
    "nested-session-union": (13727, 12354),
}


def test_top_shapes_are_all_recorded():
    assert set(TOP_BATCH_DIGESTS) == set(TOP_SHAPES) == set(TOP_OPERATOR_EVENTS)
    assert set(TOP_PUSH_DIGESTS) == set(TOP_SHAPES) - TOP_DEFERRED


@pytest.mark.parametrize("name", sorted(TOP_SHAPES))
def test_top_level_per_batch_call(name):
    assert digest(top_batch_calls(name)) == TOP_BATCH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(set(TOP_SHAPES) - TOP_DEFERRED))
def test_top_level_per_push(name):
    assert digest(top_push_calls(name)) == TOP_PUSH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TOP_SHAPES))
def test_top_level_operator_events(name):
    assert top_operator_events(name) == TOP_OPERATOR_EVENTS[name]


@pytest.mark.parametrize("subplan", sorted(NESTED_CHAIN_ADVANCES))
def test_nested_chain_advances(subplan):
    assert nested_chain_advances(subplan) == NESTED_CHAIN_ADVANCES[subplan]
