"""Cross-package integration: the full paper workflow at small scale.

Ties everything together the way Section V does: a generated log flows
through TiMR-executed BT queries on the simulated cluster (with failure
injection), the outputs feed feature selection and model building, and
each path is checked against its independent implementation.
"""

import pytest

from repro.bt import (
    BTConfig,
    KEZSelector,
    assemble_examples,
    bot_elimination_query,
    feature_selection_query,
    labeled_activity_query,
    training_data_query,
)
from repro.data import GeneratorConfig, generate
from repro.mapreduce import Cluster, CostModel, DistributedFileSystem, FailureInjector
from repro.runtime import RunContext
from repro.temporal import Query, normalize, run_query
from repro.temporal.event import rows_to_events
from repro.temporal.time import days
from repro.timr import TiMR


@pytest.fixture(scope="module")
def small_logs():
    return generate(GeneratorConfig(num_users=150, duration_days=2, seed=19)).rows


@pytest.fixture(scope="module")
def cluster_with(small_logs):
    def make(**settings):
        fs = DistributedFileSystem()
        fs.write("logs", small_logs)
        return Cluster(
            fs=fs, cost_model=CostModel(num_machines=8), context=RunContext(**settings)
        )

    return make


class TestBTThroughTiMR:
    def test_bot_elimination_cluster_equals_local(self, small_logs, cluster_with):
        cfg = BTConfig()
        q = bot_elimination_query(Query.source("logs"), cfg)
        local = run_query(q, {"logs": small_logs})
        result = TiMR(cluster_with()).run(q, num_partitions=4)
        assert normalize(rows_to_events(result.output_rows())) == normalize(local)

    def test_training_data_cluster_equals_local(self, small_logs, cluster_with):
        cfg = BTConfig()
        q = training_data_query(Query.source("logs"), cfg)
        local = run_query(q, {"logs": small_logs})
        result = TiMR(cluster_with()).run(q, num_partitions=4)
        assert normalize(rows_to_events(result.output_rows())) == normalize(local)

    def test_feature_selection_cluster_equals_local(self, small_logs, cluster_with):
        cfg = BTConfig(min_support=2, z_threshold=1.28)
        q = feature_selection_query(Query.source("logs"), cfg, horizon=days(3))
        local = run_query(q, {"logs": small_logs})
        result = TiMR(cluster_with()).run(q, num_partitions=4)
        assert normalize(rows_to_events(result.output_rows())) == normalize(local)

    def test_multi_stage_job_with_failures(self, small_logs, cluster_with):
        cfg = BTConfig()
        q = training_data_query(Query.source("logs"), cfg)
        plain = TiMR(cluster_with()).run(q, num_partitions=4).output_rows()
        injector = FailureInjector(
            kill={("timr.timr.out", 0), ("timr.timr.out", 3)}
        )
        failing = TiMR(cluster_with(fault_policy=injector)).run(
            q, num_partitions=4
        )
        assert failing.output_rows() == plain
        assert injector.stats.injected == 2

    def test_cluster_output_feeds_model_building(self, small_logs, cluster_with):
        """TiMR-produced training rows train the same selector as local."""
        cfg = BTConfig(min_support=2, z_threshold=1.0)
        timr = TiMR(cluster_with())
        acts = timr.run(
            labeled_activity_query(Query.source("logs"), cfg), job_name="acts"
        ).output_rows()
        sparse = timr.run(
            training_data_query(Query.source("logs"), cfg), job_name="sparse"
        ).output_rows()
        for row in acts + sparse:
            row.pop("_re", None)
        examples = assemble_examples(acts, sparse)
        via_cluster = KEZSelector(config=cfg).fit(examples)

        local_examples = assemble_examples(
            [
                {k: v for k, v in r.items() if k != "_re"}
                for r in _rows_of(labeled_activity_query(Query.source("logs"), cfg), small_logs)
            ],
            [
                {k: v for k, v in r.items() if k != "_re"}
                for r in _rows_of(training_data_query(Query.source("logs"), cfg), small_logs)
            ],
        )
        via_local = KEZSelector(config=cfg).fit(local_examples)
        assert via_cluster.retained == via_local.retained


def _rows_of(query, rows):
    from repro.temporal.event import events_to_rows

    return events_to_rows(run_query(query, {"logs": rows}))


class TestStreamingMatchesCluster:
    def test_three_execution_modes_agree(self, small_logs, cluster_with):
        """Engine, streaming feed, and M-R cluster: one temporal relation."""
        from repro.temporal import StreamingEngine

        cfg = BTConfig()
        q = bot_elimination_query(Query.source("logs"), cfg)
        local = run_query(q, {"logs": small_logs})
        streamed = StreamingEngine(q).run_all({"logs": list(small_logs)})
        clustered = rows_to_events(
            TiMR(cluster_with()).run(q, num_partitions=4).output_rows()
        )
        assert normalize(local) == normalize(streamed) == normalize(clustered)
