"""End-to-end TiMR tests: M-R execution must equal single-node execution.

This is the paper's core guarantee (Section III-C.1): because the DSMS
computes on application time only, the same temporal query produces
identical results on one node, on a cluster, after reducer restarts, and
(by extension) over live feeds.
"""

import random

import pytest

from repro.mapreduce import Cluster, CostModel, DistributedFileSystem, FailureInjector
from repro.runtime import RunContext
from repro.temporal import Query, normalize, run_query
from repro.temporal.event import rows_to_events
from repro.timr import TiMR


def make_logs(n=600, seed=11):
    rnd = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            {
                "Time": rnd.randrange(0, 2000),
                "StreamId": rnd.choice([0, 1, 2]),
                "UserId": f"u{rnd.randrange(20)}",
                "KwAdId": f"k{rnd.randrange(8)}",
            }
        )
    rows.sort(key=lambda r: r["Time"])
    return rows


def make_timr(rows, machines=8):
    fs = DistributedFileSystem()
    fs.write("logs", rows)
    cluster = Cluster(fs=fs, cost_model=CostModel(num_machines=machines))
    return TiMR(cluster), cluster


def assert_matches_single_node(query, rows, **run_kwargs):
    expected = run_query(query, {"logs": rows})
    timr, _ = make_timr(rows)
    result = timr.run(query, **run_kwargs)
    got = rows_to_events(result.output_rows())
    assert normalize(got) == normalize(expected)
    return result


class TestEquivalence:
    def test_grouped_window_count(self):
        q = (
            Query.source("logs")
            .where(lambda e: e["StreamId"] == 1)
            .group_apply("KwAdId", lambda g: g.window(300).count(into="n"))
        )
        result = assert_matches_single_node(q, make_logs(), num_partitions=4)
        assert len(result.fragments) == 1

    def test_hopping_window_count(self):
        q = Query.source("logs").group_apply(
            "UserId", lambda g: g.hopping_window(200, 100).count(into="n")
        )
        assert_matches_single_node(q, make_logs(), num_partitions=3)

    def test_join_of_two_grouped_streams(self):
        clicks = (
            Query.source("logs")
            .where(lambda e: e["StreamId"] == 1)
            .group_apply("UserId", lambda g: g.window(150).count(into="clicks"))
        )
        searches = (
            Query.source("logs")
            .where(lambda e: e["StreamId"] == 2)
            .group_apply("UserId", lambda g: g.window(150).count(into="searches"))
        )
        q = clicks.temporal_join(searches, on="UserId")
        assert_matches_single_node(q, make_logs(), num_partitions=4)

    def test_anti_semi_join_pipeline(self):
        impressions = Query.source("logs").where(lambda e: e["StreamId"] == 0)
        clicks = Query.source("logs").where(lambda e: e["StreamId"] == 1).shift(-50, 0)
        q = impressions.anti_semi_join(clicks, on=["UserId", "KwAdId"])
        assert_matches_single_node(q, make_logs(), num_partitions=4)

    def test_global_aggregate_single_partition(self):
        q = Query.source("logs").window(100).count(into="n")
        result = assert_matches_single_node(q, make_logs())
        assert result.fragments[-1].key == ()

    def test_temporal_partitioning_exact(self):
        q = Query.source("logs").window(100).count(into="n")
        for span_width in (150, 400, 1000):
            assert_matches_single_node(q, make_logs(), span_width=span_width)

    def test_temporal_partitioning_with_filter_folded(self):
        q = (
            Query.source("logs")
            .where(lambda e: e["StreamId"] == 1)
            .window(120)
            .count(into="n")
        )
        result = assert_matches_single_node(q, make_logs(), span_width=300)
        layout = result.stages[-1].span_layout
        assert layout is not None
        assert layout.past >= 120  # folded window still counted in overlap

    def test_scan_udo_is_not_cut_into_spans(self):
        """A fold depends on its whole prefix (an unbounded past), so the
        stage runs on one partition: a span would restart the sum."""

        def running_sum(state, payload, le):
            state["n"] += 1
            return [{"n": state["n"]}]

        q = Query.source("logs").udo_scan(lambda: {"n": 0}, running_sum)
        rows = [{"Time": t} for t in range(0, 100, 5)]
        result = assert_matches_single_node(q, rows, span_width=20)
        assert result.stages[-1].span_layout is None
        got = rows_to_events(result.output_rows())
        assert sorted(e.payload["n"] for e in got) == list(range(1, 21))

    def test_explicit_hints_respected(self):
        q = (
            Query.source("logs")
            .exchange("UserId")
            .group_apply("UserId", lambda g: g.window(100).count(into="n"))
        )
        result = assert_matches_single_node(q, make_logs(), num_partitions=4)
        assert result.annotation is None  # hints bypass the optimizer

    def test_multi_stage_repartitioning(self):
        q = (
            Query.source("logs")
            .group_apply(
                ["UserId", "KwAdId"], lambda g: g.window(100).count(into="c")
            )
            .exchange("UserId")
            .group_apply("UserId", lambda g: g.max("c", into="peak"))
        )
        # add the lower hint too so fragmentation is explicit
        q2 = (
            Query.source("logs")
            .exchange("UserId", "KwAdId")
            .group_apply(
                ["UserId", "KwAdId"], lambda g: g.window(100).count(into="c")
            )
            .exchange("UserId")
            .group_apply("UserId", lambda g: g.max("c", into="peak"))
        )
        expected = run_query(q2, {"logs": make_logs()})
        timr, _ = make_timr(make_logs())
        result = timr.run(q2, num_partitions=4)
        got = rows_to_events(result.output_rows())
        assert normalize(got) == normalize(expected)
        assert len(result.fragments) == 2


class TestOperationalProperties:
    def test_failure_restart_same_output(self):
        rows = make_logs()
        q = Query.source("logs").group_apply(
            "UserId", lambda g: g.window(100).count(into="n")
        )
        plain, _ = make_timr(rows)
        expected = plain.run(q, num_partitions=4).output_rows()

        fs = DistributedFileSystem()
        fs.write("logs", rows)
        injector = FailureInjector(
            kill={("timr.timr.out", 0), ("timr.timr.out", 2)}
        )
        cluster = Cluster(
            fs=fs,
            cost_model=CostModel(num_machines=8),
            context=RunContext(fault_policy=injector),
        )
        got = TiMR(cluster).run(q, num_partitions=4).output_rows()
        assert got == expected
        assert injector.stats.injected == 2

    def test_report_has_stage_costs(self):
        q = Query.source("logs").group_apply(
            "UserId", lambda g: g.window(100).count(into="n")
        )
        timr, cluster = make_timr(make_logs())
        result = timr.run(q, num_partitions=4)
        assert result.report.simulated_seconds(cluster.cost_model) > 0
        assert result.report.reduce_cpu_seconds() > 0

    def test_rerun_full_job_identical(self):
        rows = make_logs()
        q = Query.source("logs").group_apply(
            "KwAdId", lambda g: g.window(250).count(into="n")
        )
        timr, _ = make_timr(rows)
        first = timr.run(q, num_partitions=4).output_rows()
        second = timr.run(q, num_partitions=4).output_rows()
        assert first == second

    def test_more_partitions_than_keys_is_safe(self):
        q = Query.source("logs").group_apply(
            "UserId", lambda g: g.window(100).count(into="n")
        )
        assert_matches_single_node(q, make_logs(), num_partitions=64)

    def test_single_partition_is_safe(self):
        q = Query.source("logs").group_apply(
            "UserId", lambda g: g.window(100).count(into="n")
        )
        assert_matches_single_node(q, make_logs(), num_partitions=1)

    @pytest.mark.parametrize("partitions", [0, -2])
    def test_no_partitions_is_a_named_error(self, partitions):
        """``num_partitions`` < 1 used to run silently on one partition."""
        q = Query.source("logs").group_apply("UserId", lambda g: g.window(100).count(into="n"))
        timr, _ = make_timr(make_logs(50))
        with pytest.raises(ValueError, match="num_partitions must be at least 1"):
            timr.run(q, num_partitions=partitions)

    def test_no_machines_is_a_named_error(self):
        """A cluster of no machines used to end in a bare
        ``ZeroDivisionError`` from the optimizer's cost."""
        with pytest.raises(ValueError, match="num_machines must be at least 1"):
            CostModel(num_machines=0)
