"""One scheduler for GroupApply: every executor runs the driver's local wave.

A GroupApply advances its per-key chains on the wake-scheduled local
wave whatever the context asks for: a thread executor fans a wave's due
chains out, a process executor resolves to the same wave run inline —
as a counted, named event, never silently — and ``waves_per_dispatch``
is accepted and ignored. So the whole ``executor x waves_per_dispatch``
matrix must give raw-order byte-identical output and equal deterministic
``EngineStats``; the builtin BT queries take the same matrix in
``test_parallel_differential.py``. The gate at the end holds a
``scale_par``-shaped run to the serial run's work, counted, with no
child process forked.
"""

import multiprocessing
from bisect import bisect_left
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import RunContext
from repro.runtime.dataflow import _before
from repro.temporal import Engine, Event, Query, explain
from repro.temporal import engine as engine_module
from repro.temporal.time import hours

from tests.runtime.test_parallel_differential import (
    _det_counters,
    raw_bytes,
    run_with,
)
from tests.temporal.test_differential_runtime import (
    N_PLANS,
    _portfolio,
    histories,
)

EXECUTORS = ("serial", "thread", "process")
KNOB_VALUES = (None, 1, "auto", "max")


@settings(max_examples=30, deadline=None)
@given(histories(), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_executor_by_knob_matrix_matches_serial(rows, plan_idx):
    query = _portfolio()[plan_idx]
    serial, serial_stats = run_with("serial", query, rows)
    for executor in EXECUTORS:
        for wpd in KNOB_VALUES:
            out, stats = run_with(
                executor, query, rows, waves_per_dispatch=wpd
            )
            assert raw_bytes(out) == raw_bytes(serial), (executor, wpd)
            assert out == serial  # raw list equality, not just serialization
            assert _det_counters(stats) == _det_counters(serial_stats)


@given(
    st.lists(st.integers(min_value=0, max_value=6), max_size=30).map(sorted),
    st.integers(min_value=-1, max_value=7),
)
def test_the_wave_releases_the_backlog_bisect_left_would(les, t):
    """Each wave releases the LE-sorted backlog's prefix before the group
    watermark; the search is written out because ``bisect``'s ``key=``
    needs Python 3.10."""
    backlog = [Event(le, le + 1, {"n": i}) for i, le in enumerate(les)]
    assert _before(backlog, t) == bisect_left(les, t)


# ---------------------------------------------------------------------------
# No silent fallback: the resolution is counted and named
# ---------------------------------------------------------------------------


def _sliding_sum():
    return Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        ("UserId",), lambda g: g.window(hours(1)).sum("Clicks")
    )


def _scale_rows(n):
    return [
        {"Time": i * 7, "UserId": (i * 31) % 503, "Clicks": i % 4}
        for i in range(n)
    ]


def test_process_context_names_its_resolution():
    query, rows = _sliding_sum(), _scale_rows(2000)
    _, stats = run_with("process", query, rows, waves_per_dispatch="auto")
    entry = stats.resolutions["group_apply.local_wave"]
    assert entry["count"] == 1  # one GroupApply node, counted once
    assert entry["reason"].startswith("process executor")
    assert "\n" not in entry["reason"]
    # nothing fanned out, and no stale scheduling fields say otherwise
    parallel = stats.parallel
    assert parallel["executor"] == "process"
    assert parallel["calls"] == parallel["tasks"] == 0
    assert parallel["workers"] == []
    assert "dispatches" not in parallel and "waves" not in parallel
    report = explain(query, stats=stats)
    assert "resolved this run: group_apply.local_wave x 1" in report
    # the executors that run the wave as asked resolve nothing
    for executor in ("serial", "thread"):
        _, stats = run_with(executor, query, rows, waves_per_dispatch="auto")
        assert stats.resolutions == {}
        assert "resolved this run" not in explain(query, stats=stats)


# ---------------------------------------------------------------------------
# The gate: a scale_par-shaped run forks nothing and does serial's work
# ---------------------------------------------------------------------------


def _driven(context, query, rows):
    """Run under ``context``; return the output, the flow's chain-advance
    count and the child processes alive while the flow was still open."""
    seen = {}
    drive = engine_module._drive

    def recording_drive(flow, *args):
        try:
            yield from drive(flow, *args)
        finally:
            seen["chain_advances"] = flow.chain_advances
            seen["children"] = multiprocessing.active_children()

    with mock.patch.object(engine_module, "_drive", recording_drive):
        out = Engine(context=context).run(
            query, {"logs": rows}, validate=False
        )
    return out, seen["chain_advances"], seen["children"]


def test_scale_par_shaped_run_forks_nothing_and_does_serial_work():
    query, rows = _sliding_sum(), _scale_rows(30_000)
    serial, serial_advances, _ = _driven(
        RunContext(executor="serial"), query, rows
    )
    # the context benchmarks/e2e/workloads.py builds scale_par with
    context = RunContext(
        executor="process", max_workers=2, waves_per_dispatch="auto"
    )
    out, advances, children = _driven(context, query, rows)
    assert children == []
    assert multiprocessing.active_children() == []
    assert advances == serial_advances
    assert serial_advances > len(rows) // 10  # many waves, not one flush
    assert raw_bytes(out) == raw_bytes(serial)
