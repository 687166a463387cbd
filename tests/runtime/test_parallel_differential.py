"""The executor keyword is inert: ``RunContext(executor=...)`` runs serially.

Every run is serial; a context naming a thread or process executor gets
the serial run's output *in raw order*, byte for byte, plus one counted
``executor.serial`` resolution. These tests hold that over
hypothesis-generated plans, every builtin BT query, the inert
``waves_per_dispatch`` values, and seeded-chaos TiMR jobs with
quarantine and checkpoint resume; the benchmark's ``scale_par`` context
and the keyword matrix live in ``test_group_wave_differential.py``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import builtin_query_suite
from repro.data import GeneratorConfig, generate
from repro.mapreduce import ChaosPolicy, Cluster, CostModel, DistributedFileSystem
from repro.mapreduce.persist import dataset_sha256
from repro.runtime import RunContext
from repro.runtime.context import SERIAL_RESOLUTION
from repro.temporal import Engine
from repro.temporal.plan import source_nodes
from repro.timr import TiMR

from tests.temporal.test_differential_runtime import (
    N_PLANS,
    _portfolio,
    histories,
)


def raw_bytes(events) -> bytes:
    """Byte serialization preserving the engine's emitted order.

    Unlike ``canonical_bytes`` this does *not* normalize: equal bytes
    mean the same output order — ties between equal-LE events included
    — not just the same relation.
    """
    rows = [[e.le, e.re, sorted(e.payload.items())] for e in events]
    return json.dumps(rows, sort_keys=True, default=str).encode()


def run_with(executor, query, rows, **settings):
    """Run ``query`` under ``executor`` and return (events, EngineStats)."""
    engine = Engine(context=RunContext(executor=executor, max_workers=4, **settings))
    out = engine.run(query, {"logs": list(rows)}, validate=False)
    return out, engine.last_stats


def assert_resolved_serially(stats, kind):
    """``Engine.run`` under a ``kind`` executor fanned nothing out and
    counted one ``executor.serial`` resolution."""
    assert stats.parallel is None
    entry = stats.resolutions[SERIAL_RESOLUTION]
    assert entry["count"] == 1
    assert entry["reason"].startswith(f"executor={kind!r}")


# ---------------------------------------------------------------------------
# Hypothesis-generated plans
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(histories(), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_thread_executor_matches_serial(rows, plan_idx):
    query = _portfolio()[plan_idx]
    serial, _ = run_with("serial", query, rows)
    threaded, stats = run_with("thread", query, rows)
    assert raw_bytes(threaded) == raw_bytes(serial)
    assert threaded == serial  # raw list equality, not just serialization
    assert_resolved_serially(stats, "thread")


@settings(max_examples=25, deadline=None)
@given(histories(max_n=20), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_process_executor_matches_serial(rows, plan_idx):
    query = _portfolio()[plan_idx]
    serial, _ = run_with("serial", query, rows)
    forked, stats = run_with("process", query, rows)
    assert raw_bytes(forked) == raw_bytes(serial)
    assert_resolved_serially(stats, "process")


@settings(max_examples=40, deadline=None)
@given(histories(max_n=20), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_thread_batch_size_invariance(rows, plan_idx):
    """Chunking changes wave boundaries; output must not care."""
    query = _portfolio()[plan_idx]
    reference, _ = run_with("serial", query, rows)
    for size in (1, 7):
        out, _ = run_with("thread", query, rows, batch_size=size)
        assert raw_bytes(out) == raw_bytes(reference)


# ---------------------------------------------------------------------------
# ``waves_per_dispatch`` is accepted and inert (it leaves with the
# benchmark's keyword): no value may show in the output bytes or in any
# deterministic EngineStats counter.
# ---------------------------------------------------------------------------

WAVE_BATCH_VALUES = [1, 2, 7, float("inf")]


def _det_counters(stats):
    """The deterministic EngineStats fields (``resolutions`` names the
    executor keyword)."""
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
    a thread-executor context gives the serial bytes."""
    query = _portfolio()[plan_idx]
    serial, serial_stats = run_with("serial", query, rows)
    out, stats = run_with("thread", query, rows, waves_per_dispatch=wpd)
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
    """Past the wave threshold serial, thread, and process contexts stay
    byte-identical for every waves_per_dispatch value, and the
    deterministic counters match."""
    query = _wave_query()
    serial, serial_stats = run_with("serial", query, wave_rows)
    for executor in ("thread", "process"):
        out, stats = run_with(
            executor, query, wave_rows, waves_per_dispatch=wpd
        )
        assert raw_bytes(out) == raw_bytes(serial), (executor, wpd)
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
    """Every builtin BT query: executor x waves_per_dispatch contexts give
    the serial bytes, and the deterministic EngineStats counters equal
    the serial totals exactly."""
    query = _BT_SUITE[name]
    serial, serial_stats = run_with("serial", query, bt_rows)
    for executor in ("serial", "thread", "process"):
        for wpd in (None, 1, "auto", "max"):
            out, stats = run_with(
                executor, query, bt_rows, waves_per_dispatch=wpd
            )
            assert raw_bytes(out) == raw_bytes(serial), (executor, wpd)
            assert _det_counters(stats) == _det_counters(serial_stats)
            if executor != "serial":
                assert_resolved_serially(stats, executor)


# ---------------------------------------------------------------------------
# TiMR under chaos: quarantine + resume (seeded, process-executor context)
# ---------------------------------------------------------------------------

BAD_ROWS = [
    {"StreamId": 1, "UserId": "u-broken", "KwAdId": "k0"},  # no Time at all
    {"Time": "noon", "StreamId": 0, "UserId": "u-clock", "KwAdId": "k1"},
]


def _timr_run(rows, executor, *, seed=None, checkpoint_dir=None, resume=False):
    """One TiMR run of the combined BT job over ``rows`` (quarantine on)."""
    from repro.bt import BTConfig, bot_elimination_query, feature_selection_query
    from repro.temporal import Query
    from repro.temporal.time import days

    cfg = BTConfig(min_support=2, z_threshold=1.0)
    query = feature_selection_query(
        bot_elimination_query(Query.source("logs"), cfg), cfg, days(2)
    )
    context = RunContext(
        executor=executor,
        max_workers=2,
        quarantine=True,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    if seed is not None:
        policy = ChaosPolicy(seed=seed, rates=0.25)
        # each attempt passes two fault sites with separate blacklists
        context = context.derive(
            fault_policy=policy, max_restarts=2 * policy.blacklist_after + 1
        )
    fs = DistributedFileSystem()
    # partitioned input, so the first stage's map phase has partitions
    fs.write("logs", rows, num_partitions=3, require_time_column=False)
    cluster = Cluster(fs=fs, cost_model=CostModel(num_machines=4), context=context)
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


@pytest.mark.parametrize("seed", [3, 9])
def test_chaos_quarantine_identical_under_process_executor(seed, dirty_rows):
    """Seeded chaos + malformed rows: a process-executor context produces
    the same output *and* the same quarantine dead-letter dataset, byte
    for byte, as the serial run with the same seed, and names its
    resolution."""
    _, serial_out, serial_q = _timr_run(dirty_rows, "serial", seed=seed)
    result, forked_out, forked_q = _timr_run(dirty_rows, "process", seed=seed)
    assert serial_q is not None  # the malformed rows really were diverted
    assert forked_out == serial_out
    assert forked_q == serial_q
    assert result.resolutions[SERIAL_RESOLUTION]["count"] == 1


def test_checkpoint_resume_under_process_executor(dirty_rows, tmp_path):
    """A checkpointed job resumes cleanly under a process-executor
    context, with replay verification on, and matches the serial run."""
    executor = "process"
    _, serial_out, _ = _timr_run(dirty_rows, "serial")
    first, first_out, _ = _timr_run(
        dirty_rows, executor, checkpoint_dir=str(tmp_path)
    )
    assert first_out == serial_out
    resumed, resumed_out, _ = _timr_run(
        dirty_rows, executor, checkpoint_dir=str(tmp_path), resume=True
    )
    assert resumed_out == serial_out
    assert resumed.resumed_stages  # checkpoints were actually reused
