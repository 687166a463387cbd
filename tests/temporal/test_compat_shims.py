"""Convenience entry points over the unified runtime keep their behavior.

``run_query`` and ``StreamingEngine.run_all`` are one-call wrappers the
examples and benchmarks use; a tracer reaches ``Engine`` only through
its ``RunContext`` and never changes its output. These tests pin that
surface so downstream examples don't break.
"""

import random

from repro.obs import NULL_TRACER, Tracer
from repro.runtime import RunContext
from repro.temporal import Engine, Event, Query, normalize, run_query
from repro.temporal.engine import EngineStats
from repro.temporal.streaming import StreamingEngine


def make_rows(n=60, seed=3):
    rnd = random.Random(seed)
    times = sorted(rnd.randrange(1000) for _ in range(n))
    return [{"Time": t, "UserId": f"u{rnd.randrange(5)}"} for t in times]


def windowed_count():
    return Query.source("logs").window(100).count(into="n")


class TestRunQueryShim:
    def test_runs_and_returns_events(self):
        out = run_query(windowed_count(), {"logs": make_rows()})
        assert out and all(isinstance(e, Event) for e in out)


class TestEngineTracerShim:
    def test_default_tracer_is_null(self):
        assert Engine().context.tracer is NULL_TRACER

    def test_traced_and_untraced_output_identical(self):
        rows = make_rows()
        tracer = Tracer()
        plain = Engine().run(windowed_count(), {"logs": rows})
        traced = Engine(context=RunContext(tracer=tracer)).run(
            windowed_count(), {"logs": rows}
        )
        assert plain == traced
        names = {s.name for s in tracer.finished()}
        assert "engine.run" in names
        assert any(n.startswith("engine.") and n != "engine.run" for n in names)


class TestRunAllShim:
    def test_equals_batch(self):
        rows = make_rows()
        q = Query.source("logs").group_apply(
            "UserId", lambda g: g.window(50).count(into="n")
        )
        batch = Engine().run(q, {"logs": rows})
        streamed = StreamingEngine(q).run_all({"logs": list(rows)})
        assert normalize(streamed) == normalize(batch)

    def test_multiple_sources_aligned(self):
        a = [{"Time": 0, "k": 1}, {"Time": 20, "k": 1}]
        b = [{"Time": 10, "k": 1}]
        q = (
            Query.source("a")
            .temporal_join(Query.source("b").window(30), on="k")
        )
        batch = Engine().run(q, {"a": a, "b": b}, validate=False)
        streamed = StreamingEngine(q).run_all({"a": a, "b": b})
        assert normalize(streamed) == normalize(batch)


class TestEventsPerSecondFix:
    def test_zero_wall_seconds_reports_zero(self):
        stats = EngineStats()
        stats.input_events = 100
        stats.wall_seconds = 0.0
        assert stats.events_per_second == 0.0  # was inf before the fix

    def test_real_run_is_positive_and_finite(self, ticking_clock):
        engine = Engine(context=RunContext(clock=ticking_clock))
        engine.run(windowed_count(), {"logs": make_rows()})
        eps = engine.last_stats.events_per_second
        assert eps > 0
        assert eps != float("inf")

    def test_frozen_clock_reports_zero(self):
        engine = Engine(context=RunContext(clock=lambda: 42.0))
        engine.run(windowed_count(), {"logs": make_rows()})
        assert engine.last_stats.wall_seconds == 0.0
        assert engine.last_stats.events_per_second == 0.0
