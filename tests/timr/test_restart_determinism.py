"""Restart determinism across the builtin BT queries (Section III-C.1).

For every BT query stage, killing any reduce attempt and re-running it
must leave the job output byte-identical — the determinism property that
makes restart-based failure handling (and checkpoint reuse) sound. The
stage names are discovered from a plain run, so these tests track the
query plans as they evolve.
"""

import pytest

from repro.bt import (
    BTConfig,
    bot_elimination_query,
    feature_selection_query,
    labeled_activity_query,
    training_data_query,
)
from repro.data import GeneratorConfig, generate
from repro.mapreduce import (
    ChaosPolicy,
    Cluster,
    CostModel,
    DistributedFileSystem,
    FailureInjector,
)
from repro.runtime import RunContext
from repro.temporal import Query
from repro.temporal.time import days
from repro.timr import TiMR

CFG = BTConfig(min_support=2, z_threshold=1.28)

QUERIES = {
    "bot-elimination": lambda: bot_elimination_query(Query.source("logs"), CFG),
    "labeled-activity": lambda: labeled_activity_query(Query.source("logs"), CFG),
    "training-data": lambda: training_data_query(Query.source("logs"), CFG),
    "feature-selection": lambda: feature_selection_query(
        Query.source("logs"), CFG, horizon=days(2)
    ),
}


@pytest.fixture(scope="module")
def logs():
    return generate(GeneratorConfig(num_users=80, duration_days=2, seed=23)).rows


def run_with(logs, query, **settings):
    fs = DistributedFileSystem()
    fs.write("logs", logs)
    cluster = Cluster(
        fs=fs, cost_model=CostModel(num_machines=4), context=RunContext(**settings)
    )
    return TiMR(cluster).run(query, num_partitions=3)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_killing_every_stage_preserves_output(name, logs):
    query = QUERIES[name]()
    plain = run_with(logs, query)
    stage_names = [s.name for s in plain.report.stages]
    assert stage_names, f"{name} compiled to no stages"
    # kill the first attempt of every (stage, partition) pair at once —
    # the restarted attempts must regenerate identical output
    kills = {
        (stage, partition)
        for stage, report in zip(stage_names, plain.report.stages)
        for partition in range(report.num_partitions)
    }
    injector = FailureInjector(kill=kills)
    restarted = run_with(logs, query, fault_policy=injector)
    assert restarted.output_rows() == plain.output_rows()
    assert injector.stats.injected == len(kills)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_chaos_preserves_training_data(seed, logs):
    query = QUERIES["training-data"]()
    plain = run_with(logs, query)
    policy = ChaosPolicy(seed=seed, rates=0.3)
    chaotic = run_with(
        logs,
        query,
        fault_policy=policy,
        # a reduce attempt passes two fault sites, each with its own
        # blacklist budget; the restart allowance must cover both
        max_restarts=2 * policy.blacklist_after + 1,
    )
    assert chaotic.output_rows() == plain.output_rows()
