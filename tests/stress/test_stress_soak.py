"""Stress/soak tier (opt-in): pool chaos, repeatedly, leak-free.

Deselected by default (``addopts = -m "not stress"``); run with
``make test-stress`` or an explicit ``-m stress``. Each test runs the
combined BT job through TiMR under the supervised process pool — the
one place this system forks — with seeded worker kills on the map and
reduce fan-outs, and holds the two invariants the fast tiers check one run at a time:

* **byte identity**: the output and quarantine datasets hash equal to
  the unfailed serial baseline's, every iteration;
* **no leaks**: no live child processes and no file-descriptor growth
  after the runs complete.
"""

import os
import warnings

import pytest

from repro.mapreduce import WORKER_KILL, ChaosPolicy
from repro.runtime import ProcessExecutor, SerialExecutor

from tests.runtime.test_parallel_differential import BAD_ROWS, _timr_run

pytestmark = [
    pytest.mark.stress,
    pytest.mark.skipif(
        not ProcessExecutor.can_fork, reason="fork start method unavailable"
    ),
]


@pytest.fixture(scope="module")
def soak_rows():
    from repro.data import GeneratorConfig, generate

    rows = generate(
        GeneratorConfig(num_users=120, duration_days=2.0, seed=17)
    ).rows
    return rows + BAD_ROWS


@pytest.fixture(scope="module")
def serial_baseline(soak_rows):
    _, out, quarantine = _timr_run(soak_rows, SerialExecutor())
    return out, quarantine


def open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def live_children():
    import multiprocessing

    return [p for p in multiprocessing.active_children() if p.is_alive()]


def chaos_run(rows, seed, rate=0.4, budget=50):
    executor = ProcessExecutor(max_workers=4)
    result, out, quarantine = _timr_run(
        rows,
        executor,
        worker_policy=ChaosPolicy(seed=seed, rates={WORKER_KILL: rate}),
        worker_retry_budget=budget,
    )
    return executor, result, out, quarantine


@pytest.mark.parametrize("seed", [2, 4, 8, 13, 21])
def test_pool_kills_byte_identical(
    seed, soak_rows, serial_baseline
):
    """Killed map and reduce workers are refilled inline; the job's
    output and dead-letter datasets do not move."""
    _, result, out, quarantine = chaos_run(soak_rows, seed)
    assert (out, quarantine) == serial_baseline
    assert result.parallel["tasks"] > 0  # the pool really ran the job


def test_soak_iterations_leave_no_processes_or_fds(soak_rows, serial_baseline):
    """Repeated chaos runs neither accumulate child processes nor grow
    the open-fd table (allowing a small warm-up allocation)."""
    # one throwaway run first: lazily-opened fds (pipes, urandom) must
    # not count against the soak
    chaos_run(soak_rows, seed=1)
    fd_before = open_fds()
    restarts = 0
    for iteration in range(4):
        _, result, out, quarantine = chaos_run(soak_rows, seed=5 + iteration)
        assert (out, quarantine) == serial_baseline, iteration
        restarts += result.parallel["recovery"]["worker_restarts"]
    assert restarts >= 1  # the soak really killed workers
    assert live_children() == []
    assert open_fds() <= fd_before + 4


def test_degraded_run_still_cleans_up(soak_rows, serial_baseline):
    """Budget exhaustion (every worker killed, budget 0) degrades the
    pool instead of hanging — bytes match and nothing leaks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        executor, _, out, quarantine = chaos_run(
            soak_rows, seed=7, rate=1.0, budget=0
        )
    assert executor.degraded is not None
    assert (out, quarantine) == serial_baseline
    assert live_children() == []
