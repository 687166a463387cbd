"""Tests for the span tracer core."""

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer


class TestSpans:
    def test_parent_child_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.depth == 1 and outer.depth == 0

    def test_nesting_across_layers_without_plumbing(self):
        """A span opened by nested code lands under the caller's span."""
        tracer = Tracer()

        def inner_layer():
            with tracer.span("engine.op", category="engine"):
                pass

        with tracer.span("cluster.partition", category="cluster") as parent:
            inner_layer()
        children = tracer.children(parent)
        assert [c.name for c in children] == ["engine.op"]

    def test_category_inherited_from_parent(self):
        tracer = Tracer()
        with tracer.span("outer", category="timr"):
            with tracer.span("inner") as inner:
                pass
        assert inner.category == "timr"

    def test_attrs_set_and_add(self):
        tracer = Tracer()
        with tracer.span("s", rows=3) as span:
            span.set("extra", "x").add("count", 2).add("count", 5)
        assert span.attrs == {"rows": 3, "extra": "x", "count": 7}

    def test_wall_time_recorded(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            pass
        assert span.end is not None
        assert span.wall_seconds >= 0
        assert span.start >= tracer.epoch

    def test_exception_recorded_and_stack_unwound(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                raise RuntimeError("x")
        assert span.attrs["error"] == "RuntimeError"
        assert tracer.current() is None  # stack fully unwound

    def test_finished_excludes_open_spans(self):
        tracer = Tracer()
        open_span = tracer.span("open")
        with tracer.span("closed"):
            pass
        names = [s.name for s in tracer.finished()]
        assert "closed" in names and "open" not in names
        open_span.__exit__(None, None, None)

    def test_roots_and_span_ids_unique(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.roots()] == ["a", "c"]
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_span_is_shared_noop(self):
        a = NULL_TRACER.span("x", category="c", rows=1)
        b = NULL_TRACER.span("y")
        assert a is b  # one shared object: no allocation per span

    def test_noop_span_interface(self):
        with NULL_TRACER.span("x") as span:
            span.set("k", 1)
            span.add("k", 2)
        assert NULL_TRACER.finished() == []
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.roots() == []

    def test_null_metrics_absorb_everything(self):
        reg = NULL_TRACER.metrics
        reg.counter("c", stage="s").inc(5)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(10)
        assert reg.snapshot() == []

    def test_fresh_nulltracer_equivalent(self):
        assert NullTracer().enabled is False


# -- same seed, same trace ----------------------------------------------------


def _group_query():
    from repro.temporal import Query
    from repro.temporal.time import days

    return Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        ("UserId",), lambda g: g.window(days(1)).count()
    )


def _group_rows(n=400, keys=7):
    return [
        {"Time": i * 3600, "UserId": i % keys, "Clicks": 1} for i in range(n)
    ]


def _det_metrics(tracer):
    return tracer.metrics.snapshot(deterministic_only=True)


class TestSameSeedIdentity:
    def test_same_seed_same_sim_tree_and_metrics(self):
        """The simulated-time view of a trace and the deterministic
        metrics are byte-identical across same-seed runs."""
        from repro.obs import sim_trace_tree
        from repro.runtime import RunContext
        from repro.temporal import Engine

        runs = []
        for _ in range(2):
            tracer = Tracer()
            out = Engine(context=RunContext(tracer=tracer)).run(
                _group_query(), {"logs": _group_rows()}
            )
            runs.append((out, sim_trace_tree(tracer), _det_metrics(tracer)))
        assert runs[0] == runs[1]


class TestChaosIdentity:
    def test_same_seed_chaos_same_sim_tree_and_metrics(self):
        """A seeded fault schedule on a TiMR job over a partitioned input
        replays to the same output, trace tree and metrics."""
        from repro.mapreduce import (
            ChaosPolicy,
            Cluster,
            CostModel,
            DistributedFileSystem,
        )
        from repro.obs import sim_trace_tree
        from repro.runtime import RunContext
        from repro.timr import TiMR

        def run():
            tracer = Tracer()
            fs = DistributedFileSystem()
            fs.write("logs", _group_rows(), num_partitions=4)
            policy = ChaosPolicy(seed=8, rates=0.3)
            cluster = Cluster(
                fs=fs,
                cost_model=CostModel(num_machines=4),
                context=RunContext(
                    tracer=tracer,
                    fault_policy=policy,
                    max_restarts=2 * policy.blacklist_after + 1,
                ),
            )
            result = TiMR(cluster).run(_group_query(), num_partitions=3)
            return (
                result.output_rows(),
                policy.stats.injected,
                sim_trace_tree(tracer),
                _det_metrics(tracer),
            )

        first, second = run(), run()
        assert first[1] >= 1  # the schedule really struck
        assert first == second
