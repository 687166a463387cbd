"""Supervised parallel execution: crash recovery, retry, degradation.

The executor layer must survive worker death without changing a single
output byte: results slots that never arrive are re-executed inline
(tasks are pure, the merge is position-exact), and a worker kind that
keeps failing degrades process → thread → serial with a warning instead
of failing the run. Every fault here is seeded and injected through the
executor-site chaos machinery, so schedules are exact.
"""

import os
import time

import pytest

from repro.mapreduce import (
    REPLY_DROP,
    TASK_TRANSIENT,
    ChaosPolicy,
    WorkerKiller,
)
from repro.runtime import (
    ExecutorDegradedWarning,
    ProcessExecutor,
    RunContext,
    Supervision,
    ThreadExecutor,
    resolve_retry_budget,
    resolve_worker_timeout,
)

needs_fork = pytest.mark.skipif(
    not ProcessExecutor.can_fork, reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Executor env knobs from the outer environment must not leak in."""
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_WORKER_RETRIES", raising=False)


def _square_tasks(n):
    return [lambda i=i: i * i for i in range(n)]


def _slow_square_tasks(n, delay=0.002):
    """Same outputs as ``_square_tasks`` but each task sleeps briefly so
    every worker claims at least one chunk before the cursor drains."""
    return [lambda i=i: (time.sleep(delay), i * i)[1] for i in range(n)]


def _squares(n):
    return [i * i for i in range(n)]


# ---------------------------------------------------------------------------
# Call-time knob resolution (satellite: no more import-time WORKER_TIMEOUT)
# ---------------------------------------------------------------------------


class TestKnobResolution:
    def test_timeout_default(self):
        assert resolve_worker_timeout() == 300.0

    def test_timeout_env_reread_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_TIMEOUT", "2.5")
        assert resolve_worker_timeout() == 2.5
        monkeypatch.setenv("REPRO_PARALLEL_TIMEOUT", "7")
        assert resolve_worker_timeout() == 7.0

    def test_timeout_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_TIMEOUT", "2.5")
        assert resolve_worker_timeout(0.1) == 0.1

    def test_timeout_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_PARALLEL_TIMEOUT"):
            resolve_worker_timeout()

    def test_budget_default_env_and_override(self, monkeypatch):
        assert resolve_retry_budget() == 3
        monkeypatch.setenv("REPRO_WORKER_RETRIES", "9")
        assert resolve_retry_budget() == 9
        assert resolve_retry_budget(0) == 0
        monkeypatch.setenv("REPRO_WORKER_RETRIES", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKER_RETRIES"):
            resolve_retry_budget()

    def test_run_context_threads_supervision(self):
        ctx = RunContext(
            executor="thread",
            max_workers=2,
            worker_timeout=1.5,
            worker_retry_budget=7,
        )
        ex = ctx.resolve_executor()
        assert ex.supervision.worker_timeout == 1.5
        assert ex.supervision.retry_budget == 7


# ---------------------------------------------------------------------------
# Per-call pool recovery (ProcessExecutor.run_tasks)
# ---------------------------------------------------------------------------


@needs_fork
class TestPoolCrashRecovery:
    def test_injected_worker_kill_recovers_byte_identical(self):
        sup = Supervision(fault_policy=WorkerKiller(workers=(1,), kills=1))
        ex = ProcessExecutor(max_workers=4, supervision=sup)
        assert ex.run_tasks(_slow_square_tasks(40)) == _squares(40)
        rec = ex.last_recovery
        assert rec.worker_restarts == 1
        assert rec.tasks_reexecuted >= 1
        assert rec.chunks_reexecuted >= 1
        assert ex.degraded is None

    def test_kill_every_worker_still_recovers(self):
        sup = Supervision(
            fault_policy=WorkerKiller(workers=(0, 1, 2, 3), kills=1),
            retry_budget=10,
        )
        ex = ProcessExecutor(max_workers=4, supervision=sup)
        assert ex.run_tasks(_square_tasks(60)) == _squares(60)
        assert ex.last_recovery.worker_restarts == 4
        assert ex.last_lost  # chunk attribution survived the crash

    def test_genuine_child_crash_gap_filled(self):
        """A task that hard-exits the child (no chaos machinery at all):
        the parent detects the dead sentinel and re-runs the worker's
        unacknowledged slots inline."""
        parent = os.getpid()

        def die_if_child(i=13):
            if os.getpid() != parent:
                os._exit(1)
            return i * i

        tasks = _square_tasks(30)
        tasks[13] = die_if_child
        ex = ProcessExecutor(max_workers=4, supervision=Supervision())
        assert ex.run_tasks(tasks) == _squares(30)
        assert ex.last_recovery.worker_restarts >= 1

    def test_reply_drop_reexecutes_inline(self):
        policy = ChaosPolicy(seed=5, rates={REPLY_DROP: 1.0})
        ex = ProcessExecutor(
            max_workers=2, supervision=Supervision(fault_policy=policy)
        )
        assert ex.run_tasks(_square_tasks(24)) == _squares(24)
        rec = ex.last_recovery
        assert rec.replies_dropped >= 1
        assert rec.tasks_reexecuted >= 1

    def test_task_transient_charges_simulated_backoff(self):
        policy = ChaosPolicy(seed=3, rates={TASK_TRANSIENT: 0.5})
        ex = ProcessExecutor(
            max_workers=2, supervision=Supervision(fault_policy=policy)
        )
        assert ex.run_tasks(_square_tasks(24)) == _squares(24)
        rec = ex.last_recovery
        assert rec.task_retries >= 1
        assert rec.backoff_seconds > 0.0

    def test_silent_worker_hits_deadline_and_recovers(self):
        """A worker that hangs (never replies) trips the per-call
        deadline; its tasks are recovered inline, not lost to a 300s
        module constant."""
        parent = os.getpid()

        def hang_if_child(i=7):
            if os.getpid() != parent:
                time.sleep(60)
            return i * i

        tasks = _square_tasks(12)
        tasks[7] = hang_if_child
        ex = ProcessExecutor(
            max_workers=2,
            supervision=Supervision(worker_timeout=1.0, retry_budget=10),
        )
        assert ex.run_tasks(tasks) == _squares(12)
        assert ex.last_recovery.deadline_hits == 1

    def test_same_seed_same_recovery_metrics(self):
        """Supervision counters are part of the deterministic contract:
        driver-drawn faults (reply drops, task transients) give two runs
        with one seed the same recovery counters, field for field."""

        def run_once():
            policy = ChaosPolicy(
                seed=8, rates={REPLY_DROP: 0.4, TASK_TRANSIENT: 0.3}
            )
            ex = ProcessExecutor(
                max_workers=4, supervision=Supervision(fault_policy=policy)
            )
            return ex.run_tasks(_square_tasks(40)), ex.last_recovery.as_dict()

        out_a, rec_a = run_once()
        out_b, rec_b = run_once()
        assert out_a == out_b == _squares(40)
        assert rec_a == rec_b
        assert rec_a["replies_dropped"] >= 1 and rec_a["task_retries"] >= 1

    def test_error_beats_recovery(self):
        """A genuine task error still propagates (with the true index)
        even when another worker died in the same call."""
        sup = Supervision(fault_policy=WorkerKiller(workers=(0,), kills=1))
        tasks = _square_tasks(30)

        def boom():
            raise ValueError("boom-11")

        tasks[11] = boom
        ex = ProcessExecutor(max_workers=4, supervision=sup)
        with pytest.raises(RuntimeError, match="parallel task 11 failed"):
            ex.run_tasks(tasks)


@needs_fork
class TestDegradationLadder:
    def test_budget_exhaustion_degrades_to_thread(self):
        killer = WorkerKiller(workers=(0, 1), kills=100)
        sup = Supervision(fault_policy=killer, retry_budget=0)
        ex = ProcessExecutor(max_workers=2, supervision=sup)
        with pytest.warns(ExecutorDegradedWarning, match="thread"):
            out = ex.run_tasks(_square_tasks(20))
        assert out == _squares(20)
        assert ex.degraded == "thread"
        assert ex.last_recovery.degradations == 1
        # subsequent calls stay degraded: no forking, same results
        assert ex.run_tasks(_square_tasks(20)) == _squares(20)

    def test_thread_tier_degrades_to_serial(self):
        ex = ThreadExecutor(max_workers=4, supervision=Supervision())
        ex.force_degrade("serial")
        assert ex.degraded == "serial"
        assert ex.run_tasks(_square_tasks(15)) == _squares(15)
        (ws,) = ex.last_stats  # serial path: one inline worker
        assert ws.tasks == 15

    def test_force_degrade_never_upgrades(self):
        ex = ProcessExecutor(max_workers=2, supervision=Supervision())
        ex.force_degrade("serial")
        ex.force_degrade("thread")  # lower tier wins, no upgrade
        assert ex.degraded == "serial"
