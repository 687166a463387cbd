"""End-to-end tests for the query builder + engine."""

import pytest

from repro.temporal import Engine, Event, Query, normalize, run_query


def rows(*specs):
    """specs are (time, dict) pairs."""
    return [{"Time": t, **payload} for t, payload in specs]


class TestBasicQueries:
    def test_running_click_count(self):
        # Example 1 from the paper, scaled down
        data = rows(
            (0, {"StreamId": 1, "AdId": "a"}),
            (10, {"StreamId": 1, "AdId": "a"}),
            (10, {"StreamId": 0, "AdId": "a"}),
            (25, {"StreamId": 1, "AdId": "b"}),
            (40, {"StreamId": 1, "AdId": "a"}),
        )
        q = (
            Query.source("input")
            .where(lambda e: e["StreamId"] == 1)
            .group_apply("AdId", lambda g: g.window(30).count(into="ClickCount"))
        )
        out = run_query(q, {"input": data})
        a_counts = sorted(
            (e.le, e.payload["ClickCount"]) for e in out if e.payload["AdId"] == "a"
        )
        assert a_counts == [(0, 1), (10, 2), (30, 1), (40, 1)]

    def test_select_columns(self):
        # the timestamp lives in the lifetime, not the payload
        q = Query.source("s").select_columns("v")
        out = run_query(q, {"s": rows((1, {"v": 2, "noise": 3}))})
        assert out[0].payload == {"v": 2}
        assert out[0].le == 1

    def test_union_of_two_sources(self):
        q = Query.source("a").union(Query.source("b"))
        out = run_query(q, {"a": rows((0, {"x": 1})), "b": rows((5, {"x": 2}))})
        assert len(out) == 2

    def test_missing_source_raises(self):
        with pytest.raises(KeyError):
            run_query(Query.source("nope"), {"other": []})

    def test_event_inputs_accepted(self):
        q = Query.source("s").count(into="n")
        out = run_query(q, {"s": [Event(0, 10, {"v": 1})]})
        assert out == [Event(0, 10, {"n": 1})]

    def test_unsorted_rows_are_sorted_by_engine(self):
        data = rows((10, {"v": 1}), (0, {"v": 2}))
        q = Query.source("s").window(5).count(into="n")
        out = run_query(q, {"s": data})
        assert [e.le for e in out] == [0, 10]


class TestMulticastAndComposition:
    def test_shared_node_evaluated_once(self):
        calls = []

        def pred(p):
            calls.append(1)
            return True

        base = Query.source("s").where(pred)
        q = base.union(base)  # multicast: same node feeds both union inputs
        out = run_query(q, {"s": rows((0, {"v": 1}))})
        assert len(out) == 2
        assert len(calls) == 1  # evaluated once, output shared

    def test_meter_delta_join_pattern(self):
        # Figure 4 right: readings that increased >100 vs 5 ticks back
        data = rows(
            (0, {"id": "m", "power": 10}),
            (5, {"id": "m", "power": 200}),
            (10, {"id": "m", "power": 210}),
        )
        base = Query.source("s")
        shifted = base.shift(5)
        q = base.temporal_join(
            shifted,
            on="id",
            residual=lambda l, r: l["power"] > r["power"] + 100,
            select=lambda l, r: {"id": l["id"], "power": l["power"]},
        )
        out = run_query(q, {"s": data})
        assert [e.payload["power"] for e in out] == [200]

    def test_nested_group_apply(self):
        data = rows(
            (0, {"u": "a", "k": "x"}),
            (1, {"u": "a", "k": "x"}),
            (2, {"u": "a", "k": "y"}),
            (3, {"u": "b", "k": "x"}),
        )
        q = Query.source("s").group_apply(
            "u",
            lambda g: g.group_apply(
                "k", lambda gg: gg.window(100).count(into="n")
            ),
        )
        out = run_query(q, {"s": data})
        finals = {}
        for e in out:
            key = (e.payload["u"], e.payload["k"])
            finals[key] = max(finals.get(key, 0), e.payload["n"])
        assert finals == {("a", "x"): 2, ("a", "y"): 1, ("b", "x"): 1}


class TestDeterminism:
    def test_rerun_identical(self):
        # The temporal algebra guarantee TiMR relies on for failure recovery
        data = rows(*[(t % 37, {"v": t, "k": t % 3}) for t in range(100)])
        q = (
            Query.source("s")
            .group_apply("k", lambda g: g.window(10).count(into="n"))
        )
        out1 = run_query(q, {"s": list(data)})
        out2 = run_query(q, {"s": list(reversed(data))})
        assert normalize(out1) == normalize(out2)

    def test_engine_reusable(self):
        eng = Engine()
        q = Query.source("s").count(into="n")
        a = eng.run(q, {"s": rows((0, {}))})
        b = eng.run(q, {"s": rows((0, {}))})
        assert a == b

    def test_stats_populated(self, ticking_clock):
        # deterministic clock: the throughput assertion checks the
        # arithmetic, not the scheduler (no flake on loaded runners)
        from repro.runtime import RunContext

        eng = Engine(context=RunContext(clock=ticking_clock))
        q = Query.source("s").count(into="n")
        eng.run(q, {"s": rows((0, {}), (1, {}))})
        assert eng.last_stats.input_events == 2
        assert eng.last_stats.output_events >= 1
        assert eng.last_stats.events_per_second > 0


class TestPlanIntrospection:
    def test_operator_count(self):
        from repro.temporal.plan import count_operators

        q = (
            Query.source("s")
            .where(lambda p: True)
            .group_apply("k", lambda g: g.window(10).count())
        )
        # source, where, group-apply + (group-input excluded, window, count)
        assert count_operators(q.to_plan()) == 5

    def test_render_smoke(self):
        from repro.temporal.plan import render

        q = Query.source("s").where(lambda p: True).count()
        text = render(q.to_plan())
        assert "aggregate" in text and "source" in text

    def test_lifetime_extent_accumulates(self):
        from repro.temporal.plan import subplan_extent

        q = Query.source("s").window(10).shift(-3, 0).count()
        past, future = subplan_extent(q.to_plan())
        assert past == 10
        assert future == 3

    def test_custom_alter_lifetime_is_unbounded(self):
        from repro.temporal.plan import subplan_extent

        q = Query.source("s").alter_lifetime(lambda le, re: le, lambda le, re: re)
        assert subplan_extent(q.to_plan()) == (None, None)
