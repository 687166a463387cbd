"""End-to-end telemetry tests across engine, cluster, TiMR, streaming.

The acceptance properties of the telemetry layer:

* spans from all three layers nest into one tree;
* metrics are pure functions of the data — same seed, same snapshot;
* a disabled tracer changes nothing (byte-identical pipeline output);
* per-node metric keys keep two identical operators apart.
"""

import random

import pytest

from repro.mapreduce import Cluster, CostModel, DistributedFileSystem
from repro.mapreduce.persist import dataset_sha256
from repro.obs import Tracer, calibrate
from repro.runtime import RunContext
from repro.runtime.dataflow import Dataflow
from repro.temporal import Engine, Query
from repro.temporal.streaming import StreamingEngine
from repro.timr import TiMR


def make_logs(n=400, seed=11):
    rnd = random.Random(seed)
    rows = [
        {
            "Time": rnd.randrange(0, 2000),
            "StreamId": rnd.choice([0, 1, 2]),
            "UserId": f"u{rnd.randrange(20)}",
            "KwAdId": f"k{rnd.randrange(8)}",
        }
        for _ in range(n)
    ]
    rows.sort(key=lambda r: r["Time"])
    return rows


def grouped_count():
    return (
        Query.source("logs")
        .where(lambda e: e["StreamId"] == 1)
        .group_apply("KwAdId", lambda g: g.window(300).count(into="n"))
    )


def run_timr(rows, query, **settings):
    fs = DistributedFileSystem()
    fs.write("logs", rows)
    cluster = Cluster(
        fs=fs, cost_model=CostModel(num_machines=8), context=RunContext(**settings)
    )
    timr = TiMR(cluster)
    result = timr.run(query, num_partitions=4)
    return result, timr


class TestEngineInstrumentation:
    def test_operator_spans_with_counts(self):
        tracer = Tracer()
        Engine(context=RunContext(tracer=tracer)).run(
            grouped_count(), {"logs": make_logs()}
        )
        ops = [s for s in tracer.finished() if s.name.startswith("engine.")]
        where = next(s for s in ops if s.name == "engine.where")
        assert where.attrs["events_in"] == 400
        assert where.attrs["events_out"] < 400
        assert 0 < where.attrs["selectivity"] < 1
        run = next(s for s in ops if s.name == "engine.run")
        assert run.attrs["input_events"] == 400
        # operator spans nest under the run span
        assert where.parent_id is not None

    def test_identical_operators_keep_separate_counts(self):
        """Regression: keys were ``describe()``, merging twin operators."""
        pred = lambda e: e["StreamId"] >= 0
        q = (
            Query.source("logs")
            .where(pred, label="keep")
            .where(pred, label="keep")
        )
        engine = Engine()
        engine.run(q, {"logs": make_logs(50)})
        stats = engine.last_stats
        where_keys = [k for k in stats.operator_events if k.endswith(".where")]
        assert len(where_keys) == 2  # one entry per node, not per label
        for key in where_keys:
            assert stats.operator_events[key] == 50
            assert stats.operator_labels[key] == "keep"

    def test_plan_path_keys_stable_across_rebuilds(self):
        """The same query built twice yields the same metric keys."""

        def build():
            engine = Engine()
            engine.run(grouped_count(), {"logs": make_logs(80)})
            return engine.last_stats.operator_events

        assert build() == build()

    def test_stats_recorded_without_tracer(self):
        engine = Engine()
        engine.run(grouped_count(), {"logs": make_logs(80)})
        assert engine.last_stats.operator_events  # plain stats still work

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_per_node_counters_across_a_dag(self, batch_size, monkeypatch):
        """The source feeds two branches; the per-user counts are a keyed
        GroupApply below the root, so the join's right side lags its left;
        a union and an exchange sit above. Every node's ``events_in`` /
        ``events_out`` and ``operator_events`` are pinned, at any batch
        size."""
        logs = Query.source("logs")
        clicks = logs.where(lambda e: e["StreamId"] == 1, label="clicks")
        views = logs.where(lambda e: e["StreamId"] != 1, label="views")
        per_user = views.group_apply(
            "UserId", lambda g: g.window(300).count(into="n")
        )
        q = (
            clicks.temporal_join(per_user, on="UserId")
            .union(views)
            .exchange()
            .project(lambda p: {**p, "seen": 1})
        )
        seen = []
        node_stats = Dataflow.node_stats

        def recording(flow):
            rows = list(node_stats(flow))
            seen.append([(n.op_name, e_in, e_out) for n, e_in, e_out, _ in rows])
            return iter(rows)

        monkeypatch.setattr(Dataflow, "node_stats", recording)
        engine = Engine(context=RunContext(batch_size=batch_size))
        out = engine.run(q, {"logs": make_logs()})
        assert len(out) == 378
        assert seen == [
            [
                ("source", 0, 400),
                ("where", 400, 134),
                ("where", 400, 266),
                ("group-apply", 266, 483),
                ("temporal-join", 617, 112),
                ("union", 378, 378),
                ("exchange", 378, 378),
                ("project", 378, 378),
            ]
        ]
        assert engine.last_stats.operator_events == {
            "000.source": 400,
            "001.where": 134,
            "002.where": 266,
            "003.group-apply": 483,
            "004.temporal-join": 112,
            "005.union": 378,
            "006.exchange": 378,
            "007.project": 378,
        }


class TestClusterInstrumentation:
    def test_stage_span_attrs(self):
        tracer = Tracer()
        rows = make_logs()
        run_timr(rows, grouped_count(), tracer=tracer)
        stage = next(s for s in tracer.finished() if s.name == "cluster.stage")
        assert stage.attrs["rows_in"] == len(rows)
        assert stage.attrs["rows_out"] > 0
        assert stage.attrs["shuffle_bytes"] > 0
        assert stage.attrs["skew_ratio"] >= 1.0
        assert stage.attrs["restarts"] == 0
        assert stage.attrs["quarantined"] == 0
        assert stage.attrs["sim_shuffle_seconds"] > 0

    def test_partition_spans_nest_under_stage(self):
        tracer = Tracer()
        run_timr(make_logs(), grouped_count(), tracer=tracer)
        stage = next(s for s in tracer.finished() if s.name == "cluster.stage")
        children = tracer.children(stage)
        maps = [s for s in children if s.name == "cluster.map"]
        parts = [s for s in children if s.name == "cluster.partition"]
        assert maps and len(parts) == 4
        assert sum(p.attrs["rows_out"] for p in parts) == stage.attrs["rows_out"]
        # the embedded engine's spans nest under the reduce-partition span
        engine_spans = [
            s
            for p in parts
            for s in tracer.children(p)
            if s.category == "engine"
        ]
        assert engine_spans

    def test_cluster_metrics(self):
        tracer = Tracer()
        rows = make_logs()
        run_timr(rows, grouped_count(), tracer=tracer)
        snap = {
            (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
            for m in tracer.metrics.snapshot()
        }
        stage_label = (("stage", "timr.timr.out"),)
        assert snap[("cluster.rows_in", stage_label)] == len(rows)
        assert snap[("cluster.shuffle_bytes", stage_label)] > 0
        assert snap[("cluster.partition_skew", stage_label)] >= 1.0
        hist = snap[("cluster.partition_rows", stage_label)]
        assert hist["count"] == 4


class TestTimrInstrumentation:
    def test_fragment_spans(self):
        tracer = Tracer()
        result, _ = run_timr(make_logs(), grouped_count(), tracer=tracer)
        job = next(s for s in tracer.finished() if s.name == "timr.job")
        frags = [s for s in tracer.finished() if s.name == "timr.fragment"]
        assert len(frags) == len(result.fragments)
        assert all(f.parent_id == job.span_id for f in frags)
        assert job.attrs["rows_out"] == result.output.num_rows

    def test_checkpoint_and_restore_spans(self, tmp_path):
        rows = make_logs()
        tracer = Tracer()
        run_timr(
            rows, grouped_count(), tracer=tracer, checkpoint_dir=str(tmp_path)
        )
        names = [s.name for s in tracer.finished()]
        assert "timr.checkpoint" in names

        tracer2 = Tracer()
        result, _ = run_timr(
            rows,
            grouped_count(),
            tracer=tracer2,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        names2 = [s.name for s in tracer2.finished()]
        assert "timr.restore" in names2
        assert "timr.verify_replay" in names2
        assert result.resumed_stages == len(result.fragments)
        frag = next(s for s in tracer2.finished() if s.name == "timr.fragment")
        assert frag.attrs.get("resumed") is True


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        """Counts/rows/bytes reproduce exactly; wall times live on spans."""

        def snapshot():
            tracer = Tracer()
            run_timr(make_logs(), grouped_count(), tracer=tracer)
            return tracer.metrics.snapshot()

        assert snapshot() == snapshot()

    def test_disabled_tracer_output_byte_identical(self):
        rows = make_logs()
        plain, _ = run_timr(rows, grouped_count())  # default NULL_TRACER
        traced, _ = run_timr(rows, grouped_count(), tracer=Tracer())
        assert dataset_sha256(plain.output) == dataset_sha256(traced.output)

    def test_null_tracer_is_default_everywhere(self):
        from repro.obs import NULL_TRACER

        stream = StreamingEngine(Query.source("s").where(lambda p: True))
        for layer in (Engine(), Cluster(), stream):
            assert layer.context.tracer is NULL_TRACER


class TestStreamingInstrumentation:
    def test_watermark_lag_gauge(self):
        tracer = Tracer()
        q = Query.source("s").window(100).count(into="n")
        stream = StreamingEngine(q, context=RunContext(tracer=tracer))
        stream.push("s", {"Time": 0, "v": 1})
        stream.push("s", {"Time": 50, "v": 1})
        snap = {m["name"]: m for m in tracer.metrics.snapshot()}
        assert snap["streaming.events_in"]["value"] == 2
        # a window(100) holds output back up to 100 ticks behind the source
        assert snap["streaming.watermark_lag"]["value"] >= 0

    def test_rejected_counter(self):
        tracer = Tracer()
        q = Query.source("s").where(lambda p: True)
        stream = StreamingEngine(
            q, event_policy="drop", context=RunContext(tracer=tracer)
        )
        stream.push("s", {"Time": 100})
        stream.push("s", {"Time": 5})  # out of order: dropped
        snap = {m["name"]: m["value"] for m in tracer.metrics.snapshot()}
        assert snap["streaming.events_rejected"] == 1
        assert stream.dropped == 1

    def test_events_out_counter(self):
        tracer = Tracer()
        q = Query.source("s").where(lambda p: True)
        stream = StreamingEngine(q, context=RunContext(tracer=tracer))
        stream.push("s", {"Time": 1})
        stream.push("s", {"Time": 2})
        stream.flush()
        snap = {m["name"]: m["value"] for m in tracer.metrics.snapshot()}
        assert snap["streaming.events_out"] == 2


class TestCalibration:
    def test_estimated_vs_observed(self):
        rows = make_logs()
        result, timr = run_timr(rows, grouped_count(), tracer=Tracer())
        report = calibrate(
            result.fragments, result.report, timr.statistics, {"logs": len(rows)}
        )
        assert len(report.rows) == len(result.fragments)
        for row in report.rows:
            assert row.observed_rows >= 0
            assert row.estimated_rows > 0
            assert row.ratio is not None
        rendered = report.render()
        assert "estimated" in rendered and "observed" in rendered

    def test_calibrated_statistics_feed_back(self):
        rows = make_logs()
        result, timr = run_timr(rows, grouped_count(), tracer=Tracer())
        report = calibrate(
            result.fragments, result.report, timr.statistics, {"logs": len(rows)}
        )
        stats = report.calibrated_statistics(timr.statistics)
        out_name = result.fragments[-1].output_name
        assert stats.source_rows[out_name] == result.output.num_rows
        assert stats is not timr.statistics

    def test_as_dict_is_json_safe(self):
        import json

        rows = make_logs()
        result, timr = run_timr(rows, grouped_count(), tracer=Tracer())
        report = calibrate(
            result.fragments, result.report, timr.statistics, {"logs": len(rows)}
        )
        json.dumps(report.as_dict())
