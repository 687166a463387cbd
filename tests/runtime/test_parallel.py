"""Unit tests for the pluggable parallel executor layer."""

import pytest

from repro.runtime import (
    ParallelStats,
    ProcessExecutor,
    RunContext,
    SerialExecutor,
    ThreadExecutor,
    WorkerStats,
    resolve_executor,
)
from repro.runtime.dataflow import Dataflow
from repro.temporal import Query
from repro.temporal.engine import EngineStats
from repro.temporal.event import Event

needs_fork = pytest.mark.skipif(
    not ProcessExecutor.can_fork, reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Executor env knobs from the outer environment must not leak in."""
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def _square_tasks(n):
    return [lambda i=i: i * i for i in range(n)]


class TestSerialExecutor:
    def test_results_in_task_order(self):
        ex = SerialExecutor()
        assert ex.run_tasks(_square_tasks(10)) == [i * i for i in range(10)]

    def test_stats_cover_all_tasks(self):
        ex = SerialExecutor()
        ex.run_tasks(_square_tasks(5))
        (ws,) = ex.last_stats
        assert (ws.worker, ws.tasks, ws.chunks, ws.stolen_chunks) == (0, 5, 1, 0)

    def test_not_parallel(self):
        assert not SerialExecutor().parallel
        assert SerialExecutor(max_workers=8).max_workers == 1


class TestThreadExecutor:
    def test_results_in_task_order(self):
        ex = ThreadExecutor(max_workers=4)
        assert ex.run_tasks(_square_tasks(53)) == [i * i for i in range(53)]

    def test_worker_stats_account_for_every_task(self):
        ex = ThreadExecutor(max_workers=4)
        ex.run_tasks(_square_tasks(53))
        assert sum(ws.tasks for ws in ex.last_stats) == 53
        assert sum(ws.chunks for ws in ex.last_stats) >= 1
        # first chunk per worker is never "stolen"
        for ws in ex.last_stats:
            assert ws.stolen_chunks <= max(ws.chunks - 1, 0)

    def test_lowest_index_error_wins(self):
        """Two failing tasks: the reported error is scheduling-independent
        (always the lowest failing index, never whichever thread lost)."""

        def boom(i):
            raise ValueError(f"boom-{i}")

        tasks = _square_tasks(20)
        tasks[7] = lambda: boom(7)
        tasks[3] = lambda: boom(3)
        ex = ThreadExecutor(max_workers=4)
        with pytest.raises(RuntimeError, match="task 3 failed"):
            ex.run_tasks(tasks)

    def test_single_task_runs_inline(self):
        ex = ThreadExecutor(max_workers=4)
        assert ex.run_tasks([lambda: 42]) == [42]
        assert [ws.worker for ws in ex.last_stats] == [0]


@needs_fork
class TestProcessExecutor:
    def test_results_in_task_order(self):
        ex = ProcessExecutor(max_workers=2)
        assert ex.run_tasks(_square_tasks(17)) == [i * i for i in range(17)]

    def test_closures_cross_without_pickling(self):
        # tasks close over local (unpicklable-by-name) state; fork
        # inherits it and only the results cross the queue
        data = {"rows": list(range(100))}
        ex = ProcessExecutor(max_workers=2)
        out = ex.run_tasks(
            [lambda lo=lo: sum(data["rows"][lo : lo + 10]) for lo in range(0, 100, 10)]
        )
        assert sum(out) == sum(range(100))

    def test_error_propagates(self):
        tasks = _square_tasks(8)
        tasks[5] = lambda: 1 / 0
        ex = ProcessExecutor(max_workers=2)
        with pytest.raises(RuntimeError, match="ZeroDivisionError"):
            ex.run_tasks(tasks)

    def test_error_reports_true_task_index(self):
        """The reported index is the failing *task's*, not its chunk's
        start — and with two failures, the lowest index wins just like
        the thread executor."""

        def boom(i):
            raise ValueError(f"boom-{i}")

        tasks = _square_tasks(40)
        tasks[7] = lambda: boom(7)  # chunk start would be 5 with 2 workers
        ex = ProcessExecutor(max_workers=2)
        with pytest.raises(RuntimeError, match="parallel task 7 failed"):
            ex.run_tasks(tasks)
        tasks[3] = lambda: boom(3)
        with pytest.raises(RuntimeError, match="parallel task 3 failed"):
            ex.run_tasks(tasks)


class TestProcessExecutorNoFork:
    """Platforms without ``os.fork``: the process executor must keep
    working with thread semantics instead of crashing at import or call
    time."""

    @pytest.fixture(autouse=True)
    def _no_fork(self, monkeypatch):
        monkeypatch.setattr(ProcessExecutor, "can_fork", False)

    def test_run_tasks_falls_back_to_threads(self):
        ex = ProcessExecutor(max_workers=4)
        assert ex.run_tasks(_square_tasks(23)) == [i * i for i in range(23)]
        assert sum(ws.tasks for ws in ex.last_stats) == 23


class TestResolveExecutor:
    def test_instance_passes_through(self):
        ex = ThreadExecutor(max_workers=3)
        assert resolve_executor(ex) is ex

    def test_default_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_env_workers_alone_selects_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        ex = resolve_executor(None)
        assert isinstance(ex, ThreadExecutor) and ex.max_workers == 4

    def test_env_executor_selects_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        ex = resolve_executor(None)
        assert isinstance(ex, ProcessExecutor) and ex.max_workers == 2

    def test_explicit_spec_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_auto_prefers_processes_when_fork_exists(self):
        ex = resolve_executor("auto", max_workers=2)
        expected = ProcessExecutor if ProcessExecutor.can_fork else ThreadExecutor
        assert type(ex) is expected

    def test_one_worker_collapses_to_serial(self):
        assert isinstance(
            resolve_executor("thread", max_workers=1), SerialExecutor
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_unknown_env_executor_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "gpu")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            resolve_executor(None)

    def test_non_integer_env_workers_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_executor(None)

    def test_empty_env_values_are_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "")
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_run_context_resolves(self):
        ctx = RunContext(executor="thread", max_workers=3)
        ex = ctx.resolve_executor()
        assert isinstance(ex, ThreadExecutor) and ex.max_workers == 3
        assert isinstance(RunContext().resolve_executor(), SerialExecutor)


class TestParallelStats:
    def test_accumulates_across_calls_and_workers(self):
        ps = ParallelStats(kind="thread", max_workers=2)
        ps.add([WorkerStats(0, tasks=3, chunks=2, stolen_chunks=1)])
        ps.add(
            [
                WorkerStats(0, tasks=1, chunks=1),
                WorkerStats(1, tasks=4, chunks=2, stolen_chunks=1),
            ]
        )
        ps.add([])  # an empty fan-out is not a call
        assert (ps.calls, ps.tasks, ps.chunks, ps.stolen_chunks) == (2, 8, 5, 2)
        assert ps.per_worker[0].tasks == 4 and ps.per_worker[1].tasks == 4

    def test_as_dict_shape(self):
        ps = ParallelStats(kind="process", max_workers=2)
        ps.add([WorkerStats(1, tasks=2, chunks=1), WorkerStats(0, tasks=1, chunks=1)])
        d = ps.as_dict()
        assert d["executor"] == "process" and d["tasks"] == 3
        assert [w["worker"] for w in d["workers"]] == [0, 1]  # sorted


class TestEngineStatsMerge:
    def _stats(self, **parallel):
        s = EngineStats()
        s.input_events = 10
        s.output_events = 4
        s.operator_events = {"000.where": 4}
        s.operator_labels = {"000.where": "where(p)"}
        s.wall_seconds = 0.5
        if parallel:
            s.parallel = parallel
        return s

    def test_merge_sums_by_plan_path(self):
        a = self._stats()
        b = self._stats()
        b.operator_events["001.count"] = 2
        a.merge(b)
        assert a.input_events == 20
        assert a.operator_events == {"000.where": 8, "001.count": 2}
        assert a.wall_seconds == 1.0

    def test_merge_parallel_drops_worker_identity(self):
        a = self._stats(executor="thread", calls=1, tasks=3, workers=[{"worker": 0}])
        b = self._stats(executor="thread", calls=2, tasks=5, workers=[{"worker": 1}])
        a.merge(b)
        assert a.parallel["calls"] == 3 and a.parallel["tasks"] == 8
        assert "workers" not in a.parallel

    def test_self_merge_refused(self):
        s = self._stats()
        with pytest.raises(ValueError, match="itself"):
            s.merge(s)


@needs_fork
def test_dataflow_close_is_idempotent():
    """Closing a flow twice is harmless, whatever executor built it."""
    q = Query.source("logs").group_apply(
        "UserId", lambda g: g.window(5).count(into="n")
    )
    flow = Dataflow(
        q.to_plan(),
        allow_unstreamable=True,
        executor=ProcessExecutor(max_workers=2),
    )
    flow.feed(
        "logs", [Event.point(t, {"UserId": f"u{t % 3}"}) for t in range(12)]
    )
    flow.set_watermarks(11)
    out = list(flow.advance())
    out.extend(flow.flush())
    flow.close()
    flow.close()
    assert out
    assert flow.resolutions["group_apply.local_wave"]["count"] == 1
