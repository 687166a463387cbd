"""Tracer overhead self-test: instrumentation must stay cheap.

Two budget properties, both documented in docs/OBSERVABILITY.md:

* :data:`~repro.obs.TRACER_OVERHEAD_BUDGET_FACTOR` bounds how much
  slower a tracing-enabled run may be than its ``NULL_TRACER`` twin
  (best-of-N wall, so scheduling noise stays out of the ratio). The
  factor is deliberately generous — the workload here
  is milliseconds, where constant per-span cost looms largest; if this
  test fails, instrumentation got expensive enough to distort the very
  runs it is supposed to diagnose.
* the ``NULL_TRACER`` default stays *zero-cost by construction*: the
  disabled path allocates no spans, no records, and no metric points.
"""

import time

from repro.obs import NULL_TRACER, TRACER_OVERHEAD_BUDGET_FACTOR, Tracer
from repro.runtime import RunContext
from repro.temporal import Engine, Query
from repro.temporal.time import days


def _query():
    return Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        ("UserId",), lambda g: g.window(days(1)).count()
    )


def _rows(n=600, keys=9):
    return [
        {"Time": i * 1800, "UserId": i % keys, "Clicks": 1} for i in range(n)
    ]


def _best_wall(tracer, rows, repeats=3):
    query = _query()
    best = float("inf")
    for _ in range(repeats + 1):  # first iteration is warmup
        engine = Engine(context=RunContext(tracer=tracer))
        t0 = time.perf_counter()  # wallclock: ok (this test MEASURES real overhead; best-of-N + ratio assertion absorb scheduler noise)
        engine.run(query, {"logs": rows})
        best = min(best, time.perf_counter() - t0)  # wallclock: ok (same measurement)
    return best


def test_traced_run_within_documented_budget_factor():
    rows = _rows()
    null_wall = _best_wall(NULL_TRACER, rows)
    traced_wall = _best_wall(Tracer(), rows)
    assert null_wall > 0
    factor = traced_wall / null_wall
    assert factor <= TRACER_OVERHEAD_BUDGET_FACTOR, (
        f"tracing-enabled run is {factor:.1f}x the NULL_TRACER run; "
        f"documented budget is {TRACER_OVERHEAD_BUDGET_FACTOR}x "
        "(docs/OBSERVABILITY.md, 'Overhead budget')"
    )


def test_null_tracer_records_nothing():
    engine = Engine()
    engine.run(_query(), {"logs": _rows(100)})
    assert NULL_TRACER.finished() == []
    assert NULL_TRACER.metrics.snapshot() == []
    assert not NULL_TRACER.enabled
