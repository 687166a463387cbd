"""Tests for the count-based window (Figure 3's Count Window)."""

import pytest

from repro.temporal import Event, Query, normalize, run_query
from repro.temporal.operators import AggSpec, SnapshotAggregate, count_window
from repro.temporal.time import MAX_TIME


def pts(*times):
    return [Event.point(t, {"t": t}) for t in times]


class TestCountWindowOperator:
    def test_last_n_active(self):
        out = count_window(2).apply(pts(0, 10, 20, 30))
        # event 0 lives until event 20 arrives; event 10 until 30; the
        # last two live forever
        assert normalize(out) == normalize(
            [
                Event(0, 20, {"t": 0}),
                Event(10, 30, {"t": 10}),
                Event(20, MAX_TIME, {"t": 20}),
                Event(30, MAX_TIME, {"t": 30}),
            ]
        )

    def test_count_over_count_window(self):
        windowed = count_window(3).apply(pts(0, 1, 2, 3, 4))
        counts = SnapshotAggregate([AggSpec("count", "n")]).apply(windowed)
        # once warm, exactly 3 events are active at any instant
        for e in counts:
            if e.le >= 2:
                assert e.payload["n"] == 3

    def test_window_of_one(self):
        out = count_window(1).apply(pts(5, 9))
        assert normalize(out) == normalize(
            [Event(5, 9, {"t": 5}), Event(9, MAX_TIME, {"t": 9})]
        )

    def test_fewer_events_than_n(self):
        out = count_window(10).apply(pts(1, 2))
        assert all(e.re == MAX_TIME for e in out)

    def test_simultaneous_events_expire_instantly(self):
        # an event displaced by a same-timestamp successor never owns a
        # snapshot and disappears from the relation
        events = [Event.point(5, {"i": 0}), Event.point(5, {"i": 1})]
        out = count_window(1).apply(events)
        assert normalize(out) == [Event(5, MAX_TIME, {"i": 1})]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            count_window(0)

    def test_empty_input(self):
        assert count_window(3).apply([]) == []


class TestCountWindowQueries:
    def test_query_builder(self):
        rows = [{"Time": t, "v": t} for t in (0, 10, 20)]
        q = Query.source("s").count_window(2).count(into="n")
        out = run_query(q, {"s": rows})
        # before the first expiry: 1 then 2 active; steady state 2
        values = sorted({e.payload["n"] for e in out})
        assert values == [1, 2]

    def test_per_group_count_window(self):
        rows = [
            {"Time": 0, "k": "a"},
            {"Time": 1, "k": "b"},
            {"Time": 2, "k": "a"},
            {"Time": 3, "k": "a"},
        ]
        q = Query.source("s").group_apply(
            "k", lambda g: g.count_window(2).count(into="n")
        )
        out = run_query(q, {"s": rows})
        a_max = max(e.payload["n"] for e in out if e.payload["k"] == "a")
        assert a_max == 2  # never more than the last 2 'a' events

    def test_not_payload_partitionable(self):
        from repro.temporal.plan import subplan_extent

        q = Query.source("s").count_window(3)
        node = q.to_plan()
        assert node.partition_constraint().kind == "none"
        # unbounded past rules out temporal spans; LEs never move
        assert subplan_extent(node) == (None, 0)

    def test_streaming_matches_batch(self):
        """LEs never move backward, so count windows stream fine — even
        though their unbounded *past* extent rules out temporal spans."""
        from repro.temporal.streaming import StreamingEngine

        rows = [{"Time": t} for t in (0, 3, 7, 7, 12, 20)]
        q = Query.source("s").count_window(2).count(into="n")
        batch = run_query(q, {"s": rows})
        streamed = StreamingEngine(q).run_all({"s": rows})
        assert normalize(streamed) == normalize(batch)

    def test_custom_lifetime_still_unstreamable(self):
        from repro.temporal.streaming import StreamingEngine, StreamingUnsupported

        q = Query.source("s").alter_lifetime(lambda le, re: le, lambda le, re: re)
        with pytest.raises(StreamingUnsupported):
            StreamingEngine(q)
