"""Reduce-phase chaos, quarantine and failure fidelity, and a context's
executor keyword changes none of it.

The reduce phase draws its injected faults before each partition's
reducer runs, bisects poison rows into quarantine and fails a stage
with its full context. These tests hold that end to end: seeded chaos,
poison-row bisection, restart/backoff accounting and exception fidelity
are byte-identical between a serial context and one naming a thread or
process executor (which runs serially).
"""

import pytest

from repro.mapreduce import (
    ChaosPolicy,
    Cluster,
    CostModel,
    DistributedFileSystem,
    MapReduceStage,
    StageExecutionError,
    key_by_columns,
)
from repro.mapreduce.faults import REDUCE
from repro.mapreduce.persist import dataset_sha256
from repro.runtime import RunContext

# a reduce attempt passes two fault sites (shuffle + reduce), so the
# restart budget must cover 2 * blacklist_after injections per partition
CHAOS_RESTARTS = 2 * ChaosPolicy().blacklist_after + 1


def count_reducer(idx, rows):
    counts = {}
    for r in rows:
        counts[r["k"]] = counts.get(r["k"], 0) + 1
    return [{"Time": 0, "k": k, "n": n} for k, n in sorted(counts.items())]


def count_stage(name="count", num_partitions=4, reducer=count_reducer):
    return MapReduceStage(name, key_by_columns(["k"]), reducer, num_partitions)


def sample_rows(n=24):
    return [{"Time": t, "k": "abcd"[t % 4]} for t in range(n)]


def run_stage_with(executor, rows, stage, *, seed=None, quarantine=False):
    """One stage run; returns (output rows, quarantine hash, StageReport)."""
    fs = DistributedFileSystem()
    fs.write("in", rows, require_time_column=False)
    context = RunContext(executor=executor, quarantine=quarantine)
    if seed is not None:
        context = context.derive(
            fault_policy=ChaosPolicy(seed=seed, rates=0.3),
            max_restarts=CHAOS_RESTARTS,
        )
    cluster = Cluster(fs=fs, cost_model=CostModel(num_machines=4), context=context)
    out = cluster.run_stage(stage, "in", "out")
    qhash = None
    if fs.exists("out.quarantine"):
        qhash = dataset_sha256(fs.read("out.quarantine"))
    return out.all_rows(), qhash, cluster.last_report.stages[0]


def executors():
    return ["thread", "process"]


class TestParallelReduceDifferential:
    @pytest.mark.parametrize("seed", [0, 3, 9, 17])
    def test_seeded_chaos_identical_to_serial(self, seed):
        """Same seed, same bytes: output rows, restart counts, and
        simulated backoff all match the serial reduce exactly."""
        rows = sample_rows(40)
        serial_out, _, serial_rep = run_stage_with(
            "serial", rows, count_stage(), seed=seed
        )
        for executor in executors():
            out, _, rep = run_stage_with(executor, rows, count_stage(), seed=seed)
            assert out == serial_out, executor
            assert rep.restarted_partitions == serial_rep.restarted_partitions
            assert round(rep.retry_backoff_seconds, 9) == round(
                serial_rep.retry_backoff_seconds, 9
            )

    def test_poison_bisection_lands_in_identical_quarantine(self):
        """Bisection diverts the same rows under every executor keyword
        — the dead-letter dataset hashes equal."""
        rows = sample_rows(20) + [
            {"Time": 50, "k": "a", "poison": True},
            {"Time": 51, "k": "c", "poison": True},
        ]

        def touchy(idx, rows):
            for r in rows:
                if r.get("poison"):
                    raise ValueError("cannot digest this row")
            return count_reducer(idx, rows)

        stage = count_stage("t", 3, touchy)
        serial_out, serial_q, _ = run_stage_with(
            "serial", rows, stage, quarantine=True
        )
        assert serial_q is not None
        for executor in executors():
            out, qhash, _ = run_stage_with(executor, rows, stage, quarantine=True)
            assert out == serial_out, executor
            assert qhash == serial_q, executor

    def test_sort_dead_letters_merge_in_partition_order(self):
        """Rows without a usable Time quarantine from the sort, in
        partition order, under every executor keyword."""
        rows = sample_rows(16) + [{"k": "a"}, {"Time": "noon", "k": "b"}]
        serial_out, serial_q, _ = run_stage_with(
            "serial", rows, count_stage(num_partitions=3), quarantine=True
        )
        assert serial_q is not None
        for executor in executors():
            out, qhash, _ = run_stage_with(
                executor, rows, count_stage(num_partitions=3), quarantine=True
            )
            assert out == serial_out, executor
            assert qhash == serial_q, executor

    @pytest.mark.parametrize("seed", [1, 5])
    def test_chaos_plus_poison_together(self, seed):
        """Injected faults and real poison rows in one stage: the
        pre-draw discipline keeps the fault schedule serial-identical
        while bisection output and quarantine hashes match."""
        rows = sample_rows(32) + [{"Time": 60, "k": "b", "poison": True}]

        def touchy(idx, rows):
            for r in rows:
                if r.get("poison"):
                    raise ValueError("poison")
            return count_reducer(idx, rows)

        stage = count_stage("cp", 3, touchy)
        serial_out, serial_q, serial_rep = run_stage_with(
            "serial", rows, stage, seed=seed, quarantine=True
        )
        for executor in executors():
            out, qhash, rep = run_stage_with(
                executor, rows, stage, seed=seed, quarantine=True
            )
            assert out == serial_out, executor
            assert qhash == serial_q, executor
            assert rep.restarted_partitions == serial_rep.restarted_partitions

    def test_quarantine_record_sites_preserved(self):
        rows = sample_rows(12) + [{"Time": 50, "k": "a", "poison": True}]

        def touchy(idx, rows):
            for r in rows:
                if r.get("poison"):
                    raise ValueError("poison")
            return count_reducer(idx, rows)

        fs = DistributedFileSystem()
        fs.write("in", rows)
        cluster = Cluster(
            fs=fs,
            cost_model=CostModel(num_machines=4),
            context=RunContext(executor="thread", quarantine=True),
        )
        cluster.run_stage(count_stage("t", 3, touchy), "in", "out")
        assert len(cluster.last_quarantined) == 1
        record = cluster.last_quarantined[0]
        assert record["_site"] == REDUCE
        assert record["_row"]["poison"] is True


class TestParallelReduceFidelity:
    def test_stage_execution_error_survives_the_executor(self):
        """A real failure no bisection explains fails the stage with the
        same exception type, attempt count, and cause under every
        executor keyword."""

        def broken(idx, rows):
            raise ValueError("user bug")

        for executor in executors():
            with pytest.raises(StageExecutionError) as exc_info:
                run_stage_with(
                    executor, sample_rows(), count_stage("bad", 2, broken)
                )
            err = exc_info.value
            assert err.stage == "bad"
            assert err.attempt == 2  # one free retry before giving up
            assert isinstance(err.__cause__, ValueError)

    def test_flaky_reducer_retries_inside_the_worker(self):
        """The one free real-failure retry: per partition, the reducer
        runs at most twice."""
        import threading

        calls = {}
        lock = threading.Lock()

        def flaky(idx, rows):
            with lock:
                calls[idx] = calls.get(idx, 0) + 1
                if calls[idx] == 1:
                    raise RuntimeError("only once")
            return count_reducer(idx, rows)

        out, _, _ = run_stage_with(
            "thread", sample_rows(), count_stage("fl", 3, flaky)
        )
        assert out == run_stage_with(
            "serial", sample_rows(), count_stage("fl", 3)
        )[0]
        assert all(n == 2 for n in calls.values())

    @pytest.mark.parametrize("seed", [3, 17])
    def test_timr_pipeline_chaos_differential(self, seed):
        """End to end: a TiMR-compiled BT query under seeded chaos with
        quarantine produces byte-identical outputs and quarantine
        datasets whatever the context's executor keyword."""
        from repro.bt import (
            BTConfig,
            bot_elimination_query,
            feature_selection_query,
        )
        from repro.data import GeneratorConfig, generate
        from repro.temporal import Query
        from repro.temporal.time import days
        from repro.timr import TiMR

        logs = generate(
            GeneratorConfig(num_users=40, duration_days=1.0, seed=11)
        ).rows
        bad = [
            {"StreamId": 1, "UserId": "u-broken", "KwAdId": "k0"},  # no Time
            {"Time": "noon", "StreamId": 0, "UserId": "u-clock", "KwAdId": "k1"},
        ]
        cfg = BTConfig(min_support=2, z_threshold=1.0)
        q = feature_selection_query(
            bot_elimination_query(Query.source("logs"), cfg), cfg, days(2)
        )

        def run(executor):
            fs = DistributedFileSystem()
            fs.write("logs", logs + bad, require_time_column=False)
            cluster = Cluster(
                fs=fs,
                cost_model=CostModel(num_machines=4),
                context=RunContext(
                    executor=executor,
                    quarantine=True,
                    fault_policy=ChaosPolicy(seed=seed, rates=0.25),
                    max_restarts=CHAOS_RESTARTS,
                ),
            )
            result = TiMR(cluster).run(q, num_partitions=3)
            quarantine = {
                name: dataset_sha256(fs.read(name))
                for name in fs.list_files()
                if name.endswith(".quarantine")
            }
            report = cluster.last_report
            return (
                dataset_sha256(result.output),
                quarantine,
                sum(s.restarted_partitions for s in report.stages),
                round(sum(s.retry_backoff_seconds for s in report.stages), 9),
            )

        serial = run("serial")
        assert serial[1], "chaos run should quarantine the bad rows"
        for executor in executors():
            assert run(executor) == serial, executor
