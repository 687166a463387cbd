"""One scheduler for GroupApply, whatever the context's executor keyword.

A GroupApply advances its per-key chains serially on the wake-scheduled
local wave. A context naming a thread or process executor runs exactly
that, as one counted, named ``executor.serial`` resolution, never
silently, and ``waves_per_dispatch`` is accepted and ignored. So the
whole ``executor x waves_per_dispatch`` matrix must give raw-order
byte-identical output and equal deterministic ``EngineStats``; the
builtin BT queries take the same matrix in
``test_parallel_differential.py``. The gates at the end hold the
benchmark's ``scale_par`` context to the default engine's output and
work, counted, with no child process forked.
"""

import multiprocessing
from bisect import bisect_left
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import RunContext
from repro.runtime.context import SERIAL_RESOLUTION
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
    # a thread executor resolves exactly as a process one does
    for executor in ("process", "thread"):
        _, stats = run_with(executor, query, rows, waves_per_dispatch="auto")
        entry = stats.resolutions[SERIAL_RESOLUTION]
        assert entry["count"] == 1  # one run, counted once
        assert entry["reason"].startswith(f"executor={executor!r}")
        assert "\n" not in entry["reason"]
        assert stats.parallel is None  # nothing fanned out
        report = explain(query, stats=stats)
        assert "resolved this run: executor.serial x 1" in report
    # the serial executor runs the wave as asked and resolves nothing
    _, stats = run_with("serial", query, rows, waves_per_dispatch="auto")
    assert stats.resolutions == {}
    assert "resolved this run" not in explain(query, stats=stats)


# ---------------------------------------------------------------------------
# The gates: the benchmark's scale_par context is the default engine,
# forks nothing and does serial's work
# ---------------------------------------------------------------------------

#: the context ``benchmarks/e2e/workloads.py`` builds ``scale_par`` with
SCALE_PAR_CONTEXT = RunContext(
    executor="process", max_workers=2, waves_per_dispatch="auto"
)


def test_scale_par_context_equals_the_default_engine():
    query, rows = _sliding_sum(), _scale_rows(5000)
    default = Engine()
    expected = default.run(query, {"logs": rows})
    engine = Engine(context=SCALE_PAR_CONTEXT)
    out = engine.run(query, {"logs": rows}, validate=False)
    assert out == expected
    assert raw_bytes(out) == raw_bytes(expected)
    assert default.last_stats.resolutions == {}
    assert list(engine.last_stats.resolutions) == [SERIAL_RESOLUTION]
    assert engine.last_stats.resolutions[SERIAL_RESOLUTION]["count"] == 1


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
    out, advances, children = _driven(SCALE_PAR_CONTEXT, query, rows)
    assert children == []
    assert multiprocessing.active_children() == []
    assert advances == serial_advances
    assert serial_advances > len(rows) // 10  # many waves, not one flush
    assert raw_bytes(out) == raw_bytes(serial)


def test_traced_timr_names_the_resolution_once():
    """A TiMR job under the benchmark's context is one counted resolution
    and one ``resolution`` instant (what ``repro profile`` folds into its
    ``resolved:`` line), not one per embedded reducer engine."""
    from repro.mapreduce import Cluster, CostModel, DistributedFileSystem
    from repro.obs import Tracer
    from repro.timr import TiMR

    tracer = Tracer()
    fs = DistributedFileSystem()
    fs.write("logs", _scale_rows(3000), num_partitions=3)
    cluster = Cluster(
        fs=fs,
        cost_model=CostModel(num_machines=4),
        context=SCALE_PAR_CONTEXT.derive(tracer=tracer),
    )
    result = TiMR(cluster).run(_sliding_sum(), num_partitions=3)
    assert result.resolutions[SERIAL_RESOLUTION]["count"] == 1
    instants = [s for s in tracer.finished() if s.name == "resolution"]
    assert [s.attrs["resolution"] for s in instants] == [SERIAL_RESOLUTION]
