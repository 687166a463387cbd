"""Edge coverage: less-traveled paths across packages."""

import pytest

from repro.mapreduce import (
    Cluster,
    CostModel,
    DistributedFileSystem,
    InjectedFault,
    MapReduceStage,
    StageKiller,
)
from repro.temporal import Engine, Query, StreamingEngine, run_query
from repro.runtime import RunContext
from repro.timr import TiMR


def make_cluster(rows, **settings):
    fs = DistributedFileSystem()
    fs.write("logs", rows)
    return Cluster(
        fs=fs, cost_model=CostModel(num_machines=4), context=RunContext(**settings)
    )


ROWS = [{"Time": t, "k": f"k{t % 3}"} for t in range(60)]


class TestEngineEdges:
    def test_run_accepts_plan_node(self):
        plan = Query.source("s").count(into="n").to_plan()
        out = Engine().run(plan, {"s": [{"Time": 1}]})
        assert out

    def test_stats_track_operator_outputs(self):
        eng = Engine()
        q = Query.source("s").where(lambda p: True).count(into="n")
        eng.run(q, {"s": [{"Time": 1}, {"Time": 2}]})
        assert sum(eng.last_stats.operator_events.values()) > 0

    def test_custom_time_column(self):
        q = Query.source("s").count(into="n")
        out = run_query(q, {"s": [{"ts": 9, "v": 1}]}, time_column="ts")
        assert out[0].le == 9

    def test_group_input_outside_group_apply_rejected(self):
        from repro.temporal.plan import GroupInputNode

        with pytest.raises(RuntimeError, match="GroupInput"):
            Engine().run(GroupInputNode(), {})


class TestTiMREdges:
    def test_span_width_ignored_for_keyed_fragments(self):
        cluster = make_cluster(ROWS)
        q = Query.source("logs").group_apply("k", lambda g: g.count(into="n"))
        result = TiMR(cluster).run(q, num_partitions=2, span_width=10)
        assert all(s.span_layout is None for s in result.stages)

    def test_auto_annotate_disabled(self):
        cluster = make_cluster(ROWS)
        q = Query.source("logs").group_apply("k", lambda g: g.count(into="n"))
        result = TiMR(cluster).run(q, auto_annotate=False)
        # no exchanges -> one unpartitioned fragment, still correct
        assert len(result.fragments) == 1
        assert result.fragments[0].key == ()
        local = run_query(q, {"logs": ROWS})
        assert len(result.output_rows()) == len(local)

    def test_unknown_source_dataset(self):
        cluster = make_cluster(ROWS)
        q = Query.source("missing").count(into="n")
        with pytest.raises(KeyError):
            TiMR(cluster).run(q)

    def test_annotation_recorded_in_result(self):
        cluster = make_cluster(ROWS)
        q = Query.source("logs").group_apply("k", lambda g: g.count(into="n"))
        result = TiMR(cluster).run(q)
        assert result.annotation is not None
        assert result.annotation.cost > 0


class TestClusterEdges:
    def test_restart_limit_exceeded(self):
        killer = StageKiller("boom")  # kills every reduce attempt
        cluster = make_cluster(ROWS, fault_policy=killer, max_restarts=2)
        stage = MapReduceStage("boom", lambda r: 0, lambda i, rows: [], num_partitions=1)
        with pytest.raises(InjectedFault):
            cluster.run_stage(stage, "logs", "out")
        assert killer.stats.injected == 3  # the first attempt and two restarts

    def test_stage_without_time_sort(self):
        seen = []

        def reducer(idx, rows):
            seen.extend(r["Time"] for r in rows)
            return []

        rows = [{"Time": 5, "k": "x"}, {"Time": 1, "k": "x"}]
        cluster = make_cluster(rows)
        stage = MapReduceStage(
            "raw", lambda r: 0, reducer, num_partitions=1, sort_by_time=False
        )
        cluster.run_stage(stage, "logs", "out")
        assert seen == [5, 1]  # arrival order preserved


class TestStreamingEdges:
    def test_advance_backwards_is_noop(self):
        stream = StreamingEngine(Query.source("s").count(into="n"))
        stream.advance_to(100)
        out = stream.advance_to(50)  # must not regress watermarks
        assert out == []
        stream.push("s", {"Time": 150})  # still accepts post-watermark pushes

    def test_output_watermark_property(self):
        stream = StreamingEngine(Query.source("s").where(lambda p: True))
        stream.push("s", {"Time": 42})
        assert stream.output_watermark >= 42

    def test_push_after_flush_keeps_quiet(self):
        stream = StreamingEngine(Query.source("s").where(lambda p: True))
        stream.flush()
        assert stream.flush() == []
