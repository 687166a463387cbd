"""Differential tests: serial ≡ thread ≡ process execution, byte for byte.

``Engine.run`` never fans out: under a thread or process executor every
GroupApply runs on the driver's serial local wave, as a counted
resolution. The parallel executor layer moves TiMR map/reduce tasks onto
a work-stealing pool, and the driver replays the serial schedule exactly
— same merge order, same seq assignment. Output must therefore be
*raw-order* byte-identical, not merely canonically equal. These tests
prove that over hypothesis-generated plans, every builtin BT query, and
seeded-chaos TiMR jobs with quarantine and checkpoint resume; the
executor x ``waves_per_dispatch`` matrix and the fork gate live in
``test_group_wave_differential.py``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import builtin_query_suite
from repro.data import GeneratorConfig, generate
from repro.mapreduce import (
    WORKER_KILL,
    ChaosPolicy,
    Cluster,
    CostModel,
    DistributedFileSystem,
)
from repro.mapreduce.persist import dataset_sha256
from repro.runtime import (
    ProcessExecutor,
    RunContext,
    SerialExecutor,
    ThreadExecutor,
)
from repro.runtime.dataflow import LOCAL_WAVE
from repro.temporal import Engine
from repro.temporal.plan import GroupApplyNode, source_nodes, topological_order
from repro.timr import TiMR

from tests.temporal.test_differential_runtime import (
    N_PLANS,
    _portfolio,
    histories,
)

THREAD = ThreadExecutor(max_workers=4)
PROCESS = ProcessExecutor(max_workers=2)

needs_fork = pytest.mark.skipif(
    not ProcessExecutor.can_fork, reason="fork start method unavailable"
)


def raw_bytes(events) -> bytes:
    """Byte serialization preserving the engine's emitted order.

    Unlike ``canonical_bytes`` this does *not* normalize: equal bytes
    mean the parallel driver reproduced the serial output order — ties
    between equal-LE events included — not just the same relation.
    """
    rows = [[e.le, e.re, sorted(e.payload.items())] for e in events]
    return json.dumps(rows, sort_keys=True, default=str).encode()


def run_with(executor, query, rows, waves_per_dispatch=None, **kwargs):
    """Run ``query`` under ``executor`` and return (events, EngineStats)."""
    engine = Engine(
        context=RunContext(
            executor=executor, waves_per_dispatch=waves_per_dispatch
        )
    )
    out = engine.run(query, {"logs": list(rows)}, validate=False, **kwargs)
    return out, engine.last_stats


def assert_ran_on_local_wave(stats, query, kind):
    """``Engine.run`` under a ``kind`` executor fanned nothing out and
    counted one local-wave resolution per top-level GroupApply."""
    assert stats.parallel is None
    groups = sum(
        isinstance(n, GroupApplyNode)
        for n in topological_order(query.to_plan())
    )
    entry = stats.resolutions.get(LOCAL_WAVE)
    if not groups:
        assert entry is None
    else:
        assert entry["count"] == groups
        assert entry["reason"].startswith(f"{kind} executor")


# ---------------------------------------------------------------------------
# Hypothesis-generated plans
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(histories(), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_thread_executor_matches_serial(rows, plan_idx):
    query = _portfolio()[plan_idx]
    serial, _ = run_with(SerialExecutor(), query, rows)
    threaded, stats = run_with(THREAD, query, rows)
    assert raw_bytes(threaded) == raw_bytes(serial)
    assert threaded == serial  # raw list equality, not just serialization
    assert_ran_on_local_wave(stats, query, "thread")


@settings(max_examples=25, deadline=None)
@given(histories(max_n=20), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_process_executor_matches_serial(rows, plan_idx):
    query = _portfolio()[plan_idx]
    serial, _ = run_with(SerialExecutor(), query, rows)
    forked, stats = run_with(PROCESS, query, rows)
    assert raw_bytes(forked) == raw_bytes(serial)
    assert_ran_on_local_wave(stats, query, "process")


@settings(max_examples=40, deadline=None)
@given(histories(max_n=20), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_thread_batch_size_invariance(rows, plan_idx):
    """Chunking changes wave boundaries; parallel output must not care."""
    query = _portfolio()[plan_idx]
    reference, _ = run_with(SerialExecutor(), query, rows)
    for size in (1, 7):
        out, _ = run_with(THREAD, query, rows, batch_size=size)
        assert raw_bytes(out) == raw_bytes(reference)


# ---------------------------------------------------------------------------
# ``waves_per_dispatch`` is accepted and inert (it leaves with the
# benchmark's keyword): no value may show in the output bytes or in any
# deterministic EngineStats counter.
# ---------------------------------------------------------------------------

WAVE_BATCH_VALUES = [1, 2, 7, float("inf")]


def _det_counters(stats):
    """The deterministic EngineStats fields (``resolutions`` legitimately
    varies with the executor)."""
    return (
        stats.input_events,
        stats.output_events,
        stats.operator_events,
        stats.operator_labels,
    )


@settings(max_examples=40, deadline=None)
@given(
    histories(),
    st.integers(min_value=0, max_value=N_PLANS - 1),
    st.sampled_from(WAVE_BATCH_VALUES + ["auto"]),
)
def test_wave_batch_invariance_over_generated_plans(rows, plan_idx, wpd):
    """Property: for any generated plan and any waves_per_dispatch value,
    the thread executor replays the serial bytes."""
    query = _portfolio()[plan_idx]
    serial, serial_stats = run_with(SerialExecutor(), query, rows)
    out, stats = run_with(
        ThreadExecutor(max_workers=4), query, rows, waves_per_dispatch=wpd
    )
    assert raw_bytes(out) == raw_bytes(serial)
    assert _det_counters(stats) == _det_counters(serial_stats)


@pytest.fixture(scope="module")
def wave_rows():
    """Enough rows to cross the GroupApply wave threshold several times,
    so the run is many waves, not just the flush."""
    return [
        {"Time": i * 60, "UserId": i % 23, "Clicks": i % 3}
        for i in range(12000)
    ]


def _wave_query():
    from repro.temporal import Query
    from repro.temporal.time import days

    return Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        ("UserId",), lambda g: g.window(days(1)).count()
    )


@pytest.mark.parametrize("wpd", WAVE_BATCH_VALUES + ["auto"])
def test_wave_batch_byte_identity_at_scale(wpd, wave_rows):
    """Past the wave threshold serial, thread, and process runs stay
    byte-identical for every waves_per_dispatch value, and the
    deterministic counters match."""
    query = _wave_query()
    serial, serial_stats = run_with(SerialExecutor(), query, wave_rows)
    for executor in (ThreadExecutor(max_workers=4), ProcessExecutor(max_workers=2)):
        out, stats = run_with(
            executor, query, wave_rows, waves_per_dispatch=wpd
        )
        assert raw_bytes(out) == raw_bytes(serial), (executor.kind, wpd)
        assert _det_counters(stats) == _det_counters(serial_stats)


# ---------------------------------------------------------------------------
# Builtin BT queries
# ---------------------------------------------------------------------------


def _logs_only(query) -> bool:
    return {s.name for s in source_nodes(query.to_plan())} == {"logs"}


_BT_SUITE = builtin_query_suite()
BT_LOG_QUERIES = sorted(n for n, q in _BT_SUITE.items() if _logs_only(q))


@pytest.fixture(scope="module")
def bt_rows():
    return generate(
        GeneratorConfig(num_users=60, duration_days=1.0, seed=7)
    ).rows


@pytest.mark.parametrize("name", BT_LOG_QUERIES)
def test_builtin_bt_query_byte_identical(name, bt_rows):
    """Every builtin BT query: executor x waves_per_dispatch runs replay
    the serial bytes, and the deterministic EngineStats counters equal
    the serial totals exactly (shared stateless operator instances are
    never double-counted)."""
    query = _BT_SUITE[name]
    serial, serial_stats = run_with(SerialExecutor(), query, bt_rows)
    for executor in (
        SerialExecutor(),
        ThreadExecutor(max_workers=4),
        ProcessExecutor(max_workers=2),
    ):
        for wpd in (None, 1, "auto", "max"):
            out, stats = run_with(
                executor, query, bt_rows, waves_per_dispatch=wpd
            )
            assert raw_bytes(out) == raw_bytes(serial), (executor.kind, wpd)
            assert _det_counters(stats) == _det_counters(serial_stats)
            if executor.parallel:
                assert_ran_on_local_wave(stats, query, executor.kind)


# ---------------------------------------------------------------------------
# TiMR under chaos: quarantine + resume (seeded, process executor)
# ---------------------------------------------------------------------------

BAD_ROWS = [
    {"StreamId": 1, "UserId": "u-broken", "KwAdId": "k0"},  # no Time at all
    {"Time": "noon", "StreamId": 0, "UserId": "u-clock", "KwAdId": "k1"},
]


def _timr_run(
    rows,
    executor,
    *,
    seed=None,
    checkpoint_dir=None,
    resume=False,
    worker_policy=None,
    worker_retry_budget=None,
):
    """One TiMR run of the combined BT job over ``rows`` (quarantine on)."""
    from repro.bt import BTConfig, bot_elimination_query, feature_selection_query
    from repro.temporal import Query
    from repro.temporal.time import days

    cfg = BTConfig(min_support=2, z_threshold=1.0)
    query = feature_selection_query(
        bot_elimination_query(Query.source("logs"), cfg), cfg, days(2)
    )
    kwargs = {}
    if seed is not None:
        policy = ChaosPolicy(seed=seed, rates=0.25)
        kwargs["fault_policy"] = policy
        # each attempt passes two fault sites with separate blacklists
        kwargs["max_restarts"] = 2 * policy.blacklist_after + 1
    fs = DistributedFileSystem()
    # partitioned input so the first stage's map phase genuinely fans out
    fs.write("logs", rows, num_partitions=3, require_time_column=False)
    cluster = Cluster(
        fs=fs,
        cost_model=CostModel(num_machines=4),
        quarantine=True,
        context=RunContext(
            executor=executor,
            quarantine=True,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            # worker-level (executor-site) chaos rides the context: the
            # cluster re-resolves its executor per stage, rebuilding the
            # Supervision from these fields each time
            fault_policy=worker_policy,
            worker_retry_budget=worker_retry_budget,
        ),
        **kwargs,
    )
    result = TiMR(cluster).run(query, num_partitions=3)
    quarantine = None
    if fs.exists("timr.quarantine"):  # the default job name
        quarantine = dataset_sha256(fs.read("timr.quarantine"))
    return result, dataset_sha256(result.output), quarantine


@pytest.fixture(scope="module")
def dirty_rows():
    rows = generate(
        GeneratorConfig(num_users=40, duration_days=1.0, seed=11)
    ).rows
    return rows + BAD_ROWS


@needs_fork
@pytest.mark.parametrize("seed", [3, 9])
def test_chaos_quarantine_identical_under_process_executor(seed, dirty_rows):
    """Seeded chaos + malformed rows: the process executor produces the
    same output *and* the same quarantine dead-letter dataset, byte for
    byte, as the serial run with the same seed."""
    _, serial_out, serial_q = _timr_run(
        dirty_rows, SerialExecutor(), seed=seed
    )
    _, forked_out, forked_q = _timr_run(
        dirty_rows, ProcessExecutor(max_workers=2), seed=seed
    )
    assert serial_q is not None  # the malformed rows really were diverted
    assert forked_out == serial_out
    assert forked_q == serial_q


# ---------------------------------------------------------------------------
# Worker crash recovery: killed forked pool workers must leave the bytes
# untouched
# ---------------------------------------------------------------------------


@needs_fork
def test_pool_worker_kill_byte_identical_to_serial(dirty_rows):
    """Executor chaos kills forked map workers
    mid-fan-out; gap-fill re-execution keeps the TiMR output *and* the
    quarantine dead-letter dataset byte-identical to the serial run."""
    _, serial_out, serial_q = _timr_run(dirty_rows, SerialExecutor())
    policy = ChaosPolicy(seed=4, rates={WORKER_KILL: 1.0})
    executor = ProcessExecutor(max_workers=4)
    result, forked_out, forked_q = _timr_run(
        dirty_rows, executor, worker_policy=policy, worker_retry_budget=50
    )
    assert policy.stats.by_site.get(WORKER_KILL, 0) >= 1
    assert forked_out == serial_out
    assert forked_q == serial_q
    assert serial_q is not None
    assert result.parallel is not None
    assert result.parallel["recovery"]["worker_restarts"] >= 1
    assert executor.degraded is None  # recovered within budget, no ladder


@needs_fork
def test_pool_budget_exhaustion_degrades_yet_matches_serial(dirty_rows):
    """Past the retry budget the pool degrades process → thread with a
    structured warning instead of failing — and the bytes still match."""
    import warnings

    from repro.runtime import ExecutorDegradedWarning

    _, serial_out, serial_q = _timr_run(dirty_rows, SerialExecutor())
    executor = ProcessExecutor(max_workers=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, forked_out, forked_q = _timr_run(
            dirty_rows,
            executor,
            worker_policy=ChaosPolicy(seed=4, rates={WORKER_KILL: 1.0}),
            worker_retry_budget=0,
        )
    assert any(issubclass(w.category, ExecutorDegradedWarning) for w in caught)
    assert executor.degraded == "thread"
    assert forked_out == serial_out
    assert forked_q == serial_q


@needs_fork
def test_checkpoint_resume_under_process_executor(dirty_rows, tmp_path):
    """A checkpointed parallel job resumes cleanly under the process
    executor, with replay verification on, and matches the serial run."""
    executor = ProcessExecutor(max_workers=2)
    _, serial_out, _ = _timr_run(dirty_rows, SerialExecutor())
    first, first_out, _ = _timr_run(
        dirty_rows, executor, checkpoint_dir=str(tmp_path)
    )
    assert first_out == serial_out
    resumed, resumed_out, _ = _timr_run(
        dirty_rows, executor, checkpoint_dir=str(tmp_path), resume=True
    )
    assert resumed_out == serial_out
    assert resumed.resumed_stages  # checkpoints were actually reused
