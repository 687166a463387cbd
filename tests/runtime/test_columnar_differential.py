"""Differential tests: row ≡ columnar physical format, byte for byte.

``batch_format="columnar"`` swaps the physical representation flowing
between operators — struct-of-arrays :class:`EventBatch` chunks instead
of ``List[Event]`` — while the logical schedule (wave boundaries, merge
order, seq assignment) is untouched. Output must therefore be
*raw-order* byte-identical to the row run, and the deterministic
EngineStats counters must match exactly. These tests prove that over
hypothesis-generated plans, every logs-only builtin BT query, all three
executors, and seeded executor chaos (docs/BATCH_FORMAT.md).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import builtin_query_suite
from repro.data import GeneratorConfig, generate
from repro.mapreduce import TASK_TRANSIENT, ChaosPolicy
from repro.runtime import (
    ProcessExecutor,
    RunContext,
    SerialExecutor,
    ThreadExecutor,
)
from repro.temporal import Engine
from repro.temporal.plan import source_nodes

from tests.runtime.test_parallel_differential import raw_bytes
from tests.temporal.test_differential_runtime import (
    N_PLANS,
    _portfolio,
    histories,
)


def run_fmt(batch_format, query, rows, executor=None, **kwargs):
    """Run ``query`` under a physical format and return (events, stats)."""
    engine = Engine(
        context=RunContext(executor=executor, batch_format=batch_format)
    )
    out = engine.run(query, {"logs": list(rows)}, validate=False, **kwargs)
    return out, engine.last_stats


def assert_stats_equal(stats, reference):
    assert stats.input_events == reference.input_events
    assert stats.output_events == reference.output_events
    assert stats.operator_events == reference.operator_events
    assert stats.operator_labels == reference.operator_labels


# ---------------------------------------------------------------------------
# Hypothesis-generated plans
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(histories(), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_columnar_matches_row(rows, plan_idx):
    query = _portfolio()[plan_idx]
    row_out, row_stats = run_fmt("row", query, rows)
    col_out, col_stats = run_fmt("columnar", query, rows)
    assert raw_bytes(col_out) == raw_bytes(row_out)
    assert col_out == row_out  # raw list equality, not just serialization
    assert_stats_equal(col_stats, row_stats)


@settings(max_examples=40, deadline=None)
@given(histories(max_n=20), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_columnar_batch_size_invariance(rows, plan_idx):
    """Chunking changes batch boundaries; columnar output must not care."""
    query = _portfolio()[plan_idx]
    reference, _ = run_fmt("row", query, rows)
    for size in (1, 7):
        out, _ = run_fmt("columnar", query, rows, batch_size=size)
        assert raw_bytes(out) == raw_bytes(reference)


# ---------------------------------------------------------------------------
# Builtin BT queries, all executors
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
def test_builtin_bt_query_columnar_byte_identical(name, bt_rows):
    """Every logs-only builtin BT query: the columnar run replays the
    row run's bytes under the serial, thread, and process executors, and
    the deterministic EngineStats counters equal the row totals exactly
    (output_events counts rows, never chunks)."""
    query = _BT_SUITE[name]
    reference, reference_stats = run_fmt("row", query, bt_rows)
    executors = [SerialExecutor(), ThreadExecutor(max_workers=4)]
    if ProcessExecutor.can_fork:
        executors.append(ProcessExecutor(max_workers=2))
    for executor in executors:
        out, stats = run_fmt("columnar", query, bt_rows, executor=executor)
        assert raw_bytes(out) == raw_bytes(reference), executor.kind
        assert_stats_equal(stats, reference_stats)


# ---------------------------------------------------------------------------
# Seeded executor chaos on the in-wave thread fan-out under the columnar
# format must leave the bytes untouched
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bot-elimination", "feature-selection"])
def test_columnar_chaos_on_bt_queries(name, bt_rows, monkeypatch):
    """Representative BT queries under columnar + the thread fan-out +
    seeded task-transient faults: the retries are charged to simulated
    backoff and the row bytes come out."""
    # the shadow race checker replays waves itself, drawing no faults
    monkeypatch.delenv("REPRO_RACE_CHECK", raising=False)
    query = _BT_SUITE[name]
    reference, _ = run_fmt("row", query, bt_rows)
    policy = ChaosPolicy(seed=8, rates={TASK_TRANSIENT: 0.3})
    engine = Engine(
        context=RunContext(
            executor="thread",
            max_workers=4,
            batch_format="columnar",
            fault_policy=policy,
        )
    )
    out = engine.run(query, {"logs": bt_rows}, validate=False)
    assert engine.last_stats.parallel["recovery"]["task_retries"] >= 1
    assert raw_bytes(out) == raw_bytes(reference)
