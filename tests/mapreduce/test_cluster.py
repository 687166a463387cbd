"""Unit tests for the simulated cluster: stages, jobs, failures, costs."""

import pytest

from repro.mapreduce import (
    Cluster,
    CostModel,
    DistributedFileSystem,
    FailureInjector,
    MapReduceStage,
    key_by_columns,
    stable_hash,
)
from repro.runtime import RunContext


def count_reducer(idx, rows):
    """Group partition rows by key column 'k' and count."""
    counts = {}
    for r in rows:
        counts[r["k"]] = counts.get(r["k"], 0) + 1
    return [{"Time": 0, "k": k, "n": n} for k, n in sorted(counts.items())]


def make_cluster(rows, **settings):
    fs = DistributedFileSystem()
    fs.write("in", rows)
    return Cluster(fs=fs, context=RunContext(**settings))


def sample_rows(n=20):
    return [{"Time": t, "k": "abc"[t % 3]} for t in range(n)]


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_spreads_keys(self):
        buckets = {stable_hash(("user", i)) % 8 for i in range(100)}
        assert len(buckets) >= 6


class TestSingleStage:
    def test_counts_partitioned_by_key(self):
        cluster = make_cluster(sample_rows())
        stage = MapReduceStage(
            "count", key_by_columns(["k"]), count_reducer, num_partitions=4
        )
        out = cluster.run_stage(stage, "in", "out")
        totals = {r["k"]: r["n"] for r in out.all_rows()}
        assert totals == {"a": 7, "b": 7, "c": 6}

    def test_rows_sorted_by_time_within_partition(self):
        seen = {}

        def reducer(idx, rows):
            seen[idx] = [r["Time"] for r in rows]
            return []

        rows = [{"Time": t, "k": "x"} for t in (5, 1, 9, 3)]
        cluster = make_cluster(rows)
        stage = MapReduceStage("s", key_by_columns(["k"]), reducer, num_partitions=2)
        cluster.run_stage(stage, "in", "out")
        for times in seen.values():
            assert times == sorted(times)

    def test_same_key_same_partition(self):
        routes = {}

        def reducer(idx, rows):
            for r in rows:
                routes.setdefault(r["k"], set()).add(idx)
            return []

        cluster = make_cluster(sample_rows(50))
        stage = MapReduceStage("s", key_by_columns(["k"]), count_reducer, num_partitions=4)
        stage = MapReduceStage("s", key_by_columns(["k"]), reducer, num_partitions=4)
        cluster.run_stage(stage, "in", "out")
        assert all(len(parts) == 1 for parts in routes.values())

    def test_custom_partition_fn_multi_route(self):
        # temporal partitioning sends boundary rows to several spans
        def route(row):
            return [0, 1] if row["Time"] == 0 else [row["Time"] % 2]

        def reducer(idx, rows):
            return [{"Time": 0, "part": idx, "n": len(rows)}]

        cluster = make_cluster([{"Time": t} for t in range(4)])
        stage = MapReduceStage(
            "s", lambda r: 0, reducer, num_partitions=2, partition_fn=route
        )
        out = cluster.run_stage(stage, "in", "out")
        by_part = {r["part"]: r["n"] for r in out.all_rows()}
        # row 0 duplicated into both spans; rows 1,3 -> part 1; row 2 -> part 0
        assert by_part == {0: 2, 1: 3}

    def test_bad_partition_index_raises(self):
        cluster = make_cluster(sample_rows(3))
        stage = MapReduceStage(
            "s", lambda r: 0, count_reducer, num_partitions=2,
            partition_fn=lambda r: [5],
        )
        with pytest.raises(IndexError):
            cluster.run_stage(stage, "in", "out")


class TestMultiStageJobs:
    def test_two_stage_pipeline(self):
        # stage 1: per-key counts; stage 2: global sum of counts
        def total_reducer(idx, rows):
            return [{"Time": 0, "total": sum(r["n"] for r in rows)}]

        cluster = make_cluster(sample_rows())
        cluster.run_stage(
            MapReduceStage("count", key_by_columns(["k"]), count_reducer, num_partitions=4),
            "in",
            "j.stage0",
        )
        out = cluster.run_stage(
            MapReduceStage("total", lambda r: 0, total_reducer, num_partitions=1),
            "j.stage0",
            "j.out",
        )
        assert out.all_rows() == [{"Time": 0, "total": 20}]


class TestFailureHandling:
    def test_killed_reducer_is_restarted(self):
        injector = FailureInjector(kill={("count", 0)})
        cluster = make_cluster(sample_rows(), fault_policy=injector)
        stage = MapReduceStage(
            "count", key_by_columns(["k"]), count_reducer, num_partitions=2
        )
        out = cluster.run_stage(stage, "in", "out")
        totals = {r["k"]: r["n"] for r in out.all_rows()}
        assert totals == {"a": 7, "b": 7, "c": 6}
        assert injector.stats.injected == 1
        assert cluster.last_report.stages[0].restarted_partitions == 1

    def test_restart_output_identical_to_unfailed_run(self):
        rows = sample_rows()
        plain = make_cluster(rows)
        stage = MapReduceStage("count", key_by_columns(["k"]), count_reducer, num_partitions=2)
        expected = plain.run_stage(stage, "in", "out").all_rows()

        injector = FailureInjector(kill={("count", 0), ("count", 1)})
        failing = make_cluster(rows, fault_policy=injector)
        got = failing.run_stage(stage, "in", "out").all_rows()
        assert got == expected


class TestCostModel:
    def test_makespan_lpt(self):
        model = CostModel(num_machines=2)
        assert model.makespan([3.0, 3.0, 2.0, 2.0]) == pytest.approx(5.0)

    def test_makespan_single_machine(self):
        model = CostModel(num_machines=1)
        assert model.makespan([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_makespan_empty(self):
        assert CostModel().makespan([]) == 0.0

    def test_report_accumulates(self):
        cluster = make_cluster(sample_rows(100))
        stage = MapReduceStage("count", key_by_columns(["k"]), count_reducer, num_partitions=4)
        cluster.run_stage(stage, "in", "out")
        report = cluster.last_report.stages[0]
        assert report.rows_in == 100
        assert report.rows_out == 3 * 1 or report.rows_out > 0
        assert len(report.partition_seconds) == 4
        assert report.shuffle_seconds > 0
        sim = report.simulated_seconds(cluster.cost_model)
        single = report.single_node_seconds(cluster.cost_model)
        assert sim > 0 and single > 0
