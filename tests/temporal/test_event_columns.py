"""What ``Engine.run`` keeps: ``EventColumns`` (docs/EXECUTION.md, "What a
run keeps").

The result is a read-only sequence over int64 ``les`` / ``res`` and one
value list per payload layout; every index or iteration builds a fresh
``Event``. It must be indistinguishable from the ``List[Event]`` it
replaced — equality both ways, indexing, slicing, row conversion — and
it must not hold an object per row.
"""

import gc
import tracemalloc
from types import MappingProxyType
from unittest import mock

import pytest

from repro.temporal import Engine, Query, events_to_rows, explain
from repro.temporal.event import (
    PAYLOADS_WHOLE,
    TIMES_UNPACKED,
    Event,
    EventColumns,
    LayoutRows,
)
from repro.temporal.time import MAX_TIME


def sliding_sum():
    return Query.source("logs", ("UserId", "V")).group_apply(
        "UserId", lambda g: g.window(50).sum("V", into="s")
    )


def make_rows(n, users=16):
    return [{"Time": t, "UserId": t % users, "V": t % 3} for t in range(n)]


MIXED = [
    Event(0, 5, {"a": 1, "b": "x"}),
    Event(1, 2, {}),
    Event(1, 3, {"b": "y", "a": 2}),  # same keys, other order: its own layout
    Event(2, MAX_TIME, {"a": 3, "b": "z"}),
    Event(3, 4, {}),
    Event(4, 9, {"Time": 7, "_re": 8, "c": None}),
]


@pytest.fixture
def result():
    out = Engine().run(sliding_sum(), {"logs": make_rows(600)}, validate=False)
    assert isinstance(out, EventColumns)
    return out


# -- a sequence like the list it replaced ---------------------------------------


def test_len_indexing_and_iteration_match_the_list(result):
    events = list(result)
    assert len(result) == len(events) > 600
    for i in (0, 1, len(events) // 2, len(events) - 1):
        assert result[i] == events[i]
    assert result[-1] == events[-1]
    assert result[-len(events)] == events[0]
    for bad in (len(events), -len(events) - 1):
        with pytest.raises(IndexError):
            result[bad]
    with pytest.raises(TypeError):
        result["0"]
    assert result[3:40:7] == events[3:40:7]
    assert result[::-1] == events[::-1]
    assert result[5:2] == []
    assert [e.le for e in result] == sorted(e.le for e in events)


def test_equality_with_a_list_both_ways(result):
    events = list(result)
    assert result == events and events == result
    assert not (result != events)
    assert result == EventColumns([events])
    changed = events[:-1] + [events[-1].with_payload({"s": -1, "UserId": 0})]
    assert result != changed and changed != result
    assert result != events[:-1] and events[:-1] != result
    assert result != tuple(events)  # a list is not a tuple either


def test_every_access_builds_a_fresh_event(result):
    first = result[0]
    assert first is not result[0]
    assert first.payload is not result[0].payload
    first.payload["s"] = 10**6
    assert result[0].payload["s"] != 10**6
    assert next(iter(result)) == result[0]


def test_an_empty_result():
    out = Engine().run(sliding_sum(), {"logs": []}, validate=False)
    assert isinstance(out, EventColumns)
    assert len(out) == 0 and not out and list(out) == [] and out == []
    assert events_to_rows(out) == []
    with pytest.raises(IndexError):
        out[0]
    assert EventColumns() == [] and EventColumns([[], []]) == []


# -- layouts, lifetimes and what is kept unpacked --------------------------------


def test_mixed_layouts_keep_key_order_values_and_empty_payloads():
    columns = EventColumns([MIXED[:3], MIXED[3:]])
    assert columns == MIXED
    for i, event in enumerate(MIXED):
        for got in (columns[i], list(columns)[i]):
            assert list(got.payload) == list(event.payload)
            assert all(
                got.payload[k] is event.payload[k] for k in event.payload
            )
    assert columns[1].payload == {} and columns[4].payload == {}
    assert columns.resolutions == {}


def test_layout_rows_read_and_pack_as_their_events():
    """A keyed GroupApply root releases ``LayoutRows``: read as events,
    packed without them, and into the same run as equal-layout events."""
    layout = ("s", "UserId")
    rows = [(0, 5, 3, 7), (1, MAX_TIME, 0, 8), (2, 3, None, 7)]
    events = [Event(le, re, {"s": v, "UserId": k}) for le, re, v, k in rows]
    released = LayoutRows(layout, rows)
    assert released == events and events == released and len(released) == 3
    assert released[-1] == events[-1] and released[1:] == events[1:]
    assert [list(e.payload) for e in released] == [list(layout)] * 3
    assert released != events[:2] and released != tuple(events)
    later = LayoutRows(layout, [(le + 4, re + 4, v, k) for le, re, v, k in rows])
    columns = EventColumns([released, [Event(3, 4, {"s": 1, "UserId": 9})], later])
    assert columns == events + [Event(3, 4, {"s": 1, "UserId": 9})] + list(later)
    assert columns._keys == [layout] and len(columns._run_rows) == 1
    assert columns.resolutions == {}
    floats = EventColumns([LayoutRows(layout, [(0.5, 2, 1, 7)])])
    assert floats == [Event(0.5, 2, {"s": 1, "UserId": 7})]
    assert floats.resolutions[TIMES_UNPACKED]["count"] == 1


def test_max_time_res_pack_and_floats_fall_back_by_name():
    packed = EventColumns([[Event(0, MAX_TIME, {"a": 1})]])
    assert packed[0].re == MAX_TIME and packed.resolutions == {}
    odd = [
        Event(0, 1, {"a": 0}),
        Event(0.5, 2, {"a": 1}),  # the second batch unpacks the times
        Event(1, MAX_TIME, {"a": 2}),
        Event(2**70, 2**71, {"a": 3}),  # beyond int64
    ]
    columns = EventColumns([odd[:1], odd[1:2], odd[2:]])
    assert columns == odd and columns[1].le == 0.5
    assert columns[3].re == 2**71
    assert columns.resolutions[TIMES_UNPACKED]["count"] == 4
    assert columns.resolutions[TIMES_UNPACKED]["reason"]


def test_a_payload_that_is_not_a_dict_is_kept_whole_and_counted():
    proxy = MappingProxyType({"a": 1})
    columns = EventColumns([[Event(0, 1, {"a": 0}), Event(1, 2, proxy)]])
    assert columns[1].payload is proxy
    assert columns == [Event(0, 1, {"a": 0}), Event(1, 2, {"a": 1})]
    assert columns.resolutions[PAYLOADS_WHOLE]["count"] == 1


def test_engine_run_names_a_fallback_in_stats_and_explain():
    query = Query.source("logs", ("V",)).where(lambda p: True)
    engine = Engine()
    floats = [{"Time": t + 0.5, "V": t} for t in range(5)]
    out = engine.run(query, {"logs": floats}, validate=False)
    assert [e.le for e in out] == [t + 0.5 for t in range(5)]
    assert engine.last_stats.resolutions[TIMES_UNPACKED]["count"] == 5
    report = explain(query, stats=engine.last_stats)
    assert f"resolved this run: {TIMES_UNPACKED} x 5" in report
    assert "result kept as EventColumns" in report

    proxies = [Event.point(t, MappingProxyType({"V": t})) for t in range(3)]
    out = engine.run(query, {"logs": proxies}, validate=False)
    assert [e.payload for e in out] == [e.payload for e in proxies]
    assert engine.last_stats.resolutions[PAYLOADS_WHOLE]["count"] == 3
    assert PAYLOADS_WHOLE in explain(query, stats=engine.last_stats)


def test_rows_released_out_of_le_order_are_sorted_stably():
    batches = [
        [Event(5, 6, {"n": 0}), Event(2, 3, {"n": 1})],
        [Event(2, 9, {"n": 2}), Event(0, 1, {})],
        [Event(5, 7, MappingProxyType({"n": 4})), Event(2, 4, {"n": 5})],
    ]
    released = [e for batch in batches for e in batch]
    columns = EventColumns(batches)
    assert columns == sorted(released, key=lambda e: e.le)  # stable
    assert [e.payload.get("n") for e in columns] == [None, 1, 2, 5, 0, 4]
    assert columns.resolutions[PAYLOADS_WHOLE]["count"] == 1


# -- the reducer's row conversion ----------------------------------------------------


@pytest.mark.parametrize("re_column", ["_re", None])
@pytest.mark.parametrize(
    "events",
    [
        MIXED,
        [Event(0, 1, MappingProxyType({"Time": 9, "a": 1})), *MIXED],
        [Event(0.5, 1, {"a": 1}), Event(1, 2, {"a": 2})],
    ],
    ids=["mixed", "whole", "float"],
)
def test_events_to_rows_reads_the_columns_like_the_events(events, re_column):
    columns = EventColumns([events])
    want = events_to_rows(list(columns), re_column=re_column)
    got = events_to_rows(columns, re_column=re_column)
    assert got == want
    assert [list(row) for row in got] == [list(row) for row in want]


def test_rows_share_one_object_per_time_value():
    """Each read of an int64 column is a new int; a reducer's output rows
    stay in the file system, so equal times share one object."""
    columns = EventColumns(
        [[Event(1000, 2000, {"a": 1}), Event(2000, 3000, {"a": 2}), Event(2000, 2500, {})]]
    )
    rows = events_to_rows(columns)
    assert rows[0]["_re"] is rows[1]["Time"] is rows[2]["Time"]


def test_events_to_rows_builds_no_event(result):
    want = events_to_rows(list(result))
    built = []
    init = Event.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    with mock.patch.object(Event, "__init__", counting_init):
        got = events_to_rows(result)
    assert got == want and not built


# -- the gate: no object per row -------------------------------------------------------


def tracked_referents(root):
    """How many GC-tracked objects are reachable from ``root`` (``root``
    included), not counting classes or anything reached through one."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


def test_a_result_holds_o1_tracked_objects_and_few_bytes_per_row():
    """Fails at the parent commit, whose result was a list of ``Event``s
    with a payload dict each: two tracked objects and ~250 B per row."""
    rows = make_rows(20_000)
    query = sliding_sum().to_plan()
    engine = Engine()
    engine.run(query, {"logs": rows[:100]}, validate=False)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = engine.run(query, {"logs": rows}, validate=False)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(out) > 20_000
    assert tracked_referents(out) <= 16
    assert retained / len(out) <= 48, f"{retained / len(out):.1f} B per row"
