"""Differential + chaos tests for the parallel reduce phase (ISSUE 10).

The reduce phase fans partitions over the executor protocol with the
same discipline ``_run_map_parallel`` established for map: fault draws
pre-consulted in serial partition order in the driver, pure sort+reduce
bodies on workers, results and quarantine records merged in partition
order. These tests prove the schedule-independence end to end: seeded
chaos, poison-row bisection, restart/backoff accounting, and exception
fidelity are byte-identical between serial and parallel reduce.
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
from repro.runtime import (
    ProcessExecutor,
    RunContext,
    SerialExecutor,
    ThreadExecutor,
)

needs_fork = pytest.mark.skipif(
    not ProcessExecutor.can_fork, reason="fork start method unavailable"
)

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
    kwargs = {}
    if seed is not None:
        policy = ChaosPolicy(seed=seed, rates=0.3)
        kwargs["fault_policy"] = policy
        kwargs["max_restarts"] = CHAOS_RESTARTS
    cluster = Cluster(
        fs=fs,
        cost_model=CostModel(num_machines=4),
        quarantine=quarantine,
        context=RunContext(executor=executor, quarantine=quarantine),
        **kwargs,
    )
    out = cluster.run_stage(stage, "in", "out")
    qhash = None
    if fs.exists("out.quarantine"):
        qhash = dataset_sha256(fs.read("out.quarantine"))
    return out.all_rows(), qhash, cluster.last_report.stages[0]


def executors():
    fleet = [ThreadExecutor(max_workers=4)]
    if ProcessExecutor.can_fork:
        fleet.append(ProcessExecutor(max_workers=2))
    return fleet


class TestParallelReduceDifferential:
    @pytest.mark.parametrize("seed", [0, 3, 9, 17])
    def test_seeded_chaos_identical_to_serial(self, seed):
        """Same seed, same bytes: output rows, restart counts, and
        simulated backoff all match the serial reduce exactly."""
        rows = sample_rows(40)
        serial_out, _, serial_rep = run_stage_with(
            SerialExecutor(), rows, count_stage(), seed=seed
        )
        for executor in executors():
            out, _, rep = run_stage_with(executor, rows, count_stage(), seed=seed)
            assert out == serial_out, executor.kind
            assert rep.restarted_partitions == serial_rep.restarted_partitions
            assert round(rep.retry_backoff_seconds, 9) == round(
                serial_rep.retry_backoff_seconds, 9
            )

    def test_poison_bisection_lands_in_identical_quarantine(self):
        """Bisection inside a parallel reduce worker diverts exactly the
        rows the serial bisection diverts — the dead-letter dataset
        hashes equal."""
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
            SerialExecutor(), rows, stage, quarantine=True
        )
        assert serial_q is not None
        for executor in executors():
            out, qhash, _ = run_stage_with(executor, rows, stage, quarantine=True)
            assert out == serial_out, executor.kind
            assert qhash == serial_q, executor.kind

    def test_sort_dead_letters_merge_in_partition_order(self):
        """Rows without a usable Time quarantine from the worker-side
        sort; merged in partition order they hash equal to serial."""
        rows = sample_rows(16) + [{"k": "a"}, {"Time": "noon", "k": "b"}]
        serial_out, serial_q, _ = run_stage_with(
            SerialExecutor(), rows, count_stage(num_partitions=3), quarantine=True
        )
        assert serial_q is not None
        for executor in executors():
            out, qhash, _ = run_stage_with(
                executor, rows, count_stage(num_partitions=3), quarantine=True
            )
            assert out == serial_out, executor.kind
            assert qhash == serial_q, executor.kind

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
            SerialExecutor(), rows, stage, seed=seed, quarantine=True
        )
        for executor in executors():
            out, qhash, rep = run_stage_with(
                executor, rows, stage, seed=seed, quarantine=True
            )
            assert out == serial_out, executor.kind
            assert qhash == serial_q, executor.kind
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
            quarantine=True,
            context=RunContext(
                executor=ThreadExecutor(max_workers=4), quarantine=True
            ),
        )
        cluster.run_stage(count_stage("t", 3, touchy), "in", "out")
        assert len(cluster.last_quarantined) == 1
        record = cluster.last_quarantined[0]
        assert record["_site"] == REDUCE
        assert record["_row"]["poison"] is True


class TestParallelReduceFidelity:
    def test_stage_execution_error_survives_the_executor(self):
        """A real failure no bisection explains must fail the stage with
        the same exception type, attempt count, and cause as serial —
        not an executor RuntimeError."""

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
        """The one free real-failure retry happens worker-side: per
        partition, the reducer runs at most twice."""
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
            ThreadExecutor(max_workers=4),
            sample_rows(),
            count_stage("fl", 3, flaky),
        )
        assert out == run_stage_with(
            SerialExecutor(), sample_rows(), count_stage("fl", 3)
        )[0]
        assert all(n == 2 for n in calls.values())

    def test_parallel_stats_cover_reduce_fanout(self):
        """The reduce fan-out folds into last_parallel: tasks cover the
        reduce partitions on top of the map tasks."""
        fs = DistributedFileSystem()
        fs.write("in", sample_rows(40), num_partitions=3)
        cluster = Cluster(
            fs=fs,
            cost_model=CostModel(num_machines=4),
            context=RunContext(executor=ThreadExecutor(max_workers=4)),
        )
        cluster.run_stage(count_stage(num_partitions=4), "in", "out")
        assert cluster.last_parallel is not None
        # 3 map partitions + 4 reduce partitions, two run_tasks calls
        assert cluster.last_parallel.calls == 2
        assert cluster.last_parallel.tasks == 7

    @pytest.mark.parametrize("seed", [3, 17])
    def test_timr_pipeline_chaos_differential(self, seed):
        """End to end: a TiMR-compiled BT query under seeded chaos with
        quarantine produces byte-identical outputs and quarantine
        datasets whether the reduce phase runs serial or parallel."""
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
                fault_policy=ChaosPolicy(seed=seed, rates=0.25),
                max_restarts=CHAOS_RESTARTS,
                quarantine=True,
                context=RunContext(executor=executor, quarantine=True),
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

        serial = run(SerialExecutor())
        assert serial[1], "chaos run should quarantine the bad rows"
        for executor in executors():
            assert run(executor) == serial, executor.kind

    @needs_fork
    def test_nested_engine_runs_serial_inside_reduce_workers(self):
        """A reducer that itself resolves an executor (the TiMR embedded
        engine pattern) must get serial inside a pool worker — daemonic
        children cannot fork — and the output must not change."""
        from repro.runtime import resolve_executor

        def nested(idx, rows):
            inner = resolve_executor("process", max_workers=4)
            assert inner.kind == "serial"
            return count_reducer(idx, rows)

        out, _, _ = run_stage_with(
            ProcessExecutor(max_workers=2),
            sample_rows(),
            count_stage("nest", 3, nested),
        )
        assert out == run_stage_with(
            SerialExecutor(), sample_rows(), count_stage("nest", 3)
        )[0]
