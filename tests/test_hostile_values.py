"""Hostile values in a query's text and in its data, at every entry point.

A sibling of ``test_hostile_keys.py``: each cell ends in the exact
result or a named error, never a bare ``TypeError`` and never a value
silently changed on its way through.

* A StreamSQL comparison whose operands cannot be ordered (an int
  column against a string) is a ``data_error`` ``ValueError`` naming the
  column, the operator and both values; a TiMR reducer fails with it
  once.
* A StreamSQL window or hop that is not a whole number of ticks, or a
  count window that is not a whole number of events, is a
  ``StreamSQLError`` when the query is parsed (it was truncated by
  ``int()``).
* A keyed int ``sum`` whose total passes 2^63 gives the exact Python
  int: the array form never wraps, and the run goes again on per-key
  chains, named ``keyed.rerun_on_chains``.
* ``Cluster.run_stage`` called directly with a map function or a reducer
  whose output is not rows (``None``, an ``int`` among them) fails on
  the first attempt with a ``ValueError`` naming the stage, the task and
  the value (a reducer's inside its ``StageExecutionError``); with
  quarantine the rows it fails on are dead-lettered, or the stage fails
  as any task no row explains does.
"""

import pytest

from repro.mapreduce import (
    Cluster,
    DistributedFileSystem,
    MapReduceStage,
    StageExecutionError,
    key_by_columns,
)
from repro.runtime import RunContext, keyed
from repro.temporal import Engine, Query, normalize
from repro.temporal.event import point_events
from repro.temporal.relation import ref_plan
from repro.temporal.streamsql import StreamSQLError, parse, run_sql
from tests.test_hostile_keys import ENTRY_POINTS

ENTRIES = ["engine", "stream", "timr"]


# -- comparisons that cannot order their operands --------------------------------


UNORDERED = {
    "column-first": ("SELECT * FROM logs WHERE x < 'a'", "column 'x' < 'a'", "3", "'a'"),
    "literal-first": ("SELECT * FROM logs WHERE 'a' >= x", "'a' >= column 'x'", "'a'", "3"),
    "two-columns": ("SELECT * FROM logs WHERE x <= y", "column 'x' <= column 'y'", "3", "'b'"),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", sorted(UNORDERED))
def test_a_comparison_that_cannot_order_its_operands_is_named(case, entry):
    """Was a bare ``TypeError`` (``'<' not supported between instances
    of 'int' and 'str'``), and a TiMR reducer re-ran and failed on
    attempt 2."""
    sql, text, left, right = UNORDERED[case]
    rows = [{"Time": 1, "x": 3, "y": "b"}, {"Time": 2, "x": 4, "y": "c"}]
    with pytest.raises(Exception) as info:
        ENTRY_POINTS[entry][0](parse(sql), rows)
    exc = info.value
    if isinstance(exc, StageExecutionError):
        assert exc.attempt == 1 and "failed on attempt 1 " in str(exc)
        exc = exc.__cause__
    assert type(exc) is ValueError and exc.data_error
    assert str(exc).startswith(f"WHERE {text}: cannot compare {left} (")
    assert f"with {right} (" in str(exc)


def test_comparisons_that_can_order_still_filter():
    rows = [{"Time": t, "x": t, "s": "ab"[t % 2]} for t in range(6)]
    out = run_sql("SELECT * FROM logs WHERE x >= 2 AND s = 'a' OR x <> x", {"logs": rows})
    assert [e.le for e in out] == [2, 4]


# -- windows that are not whole ------------------------------------------------------


FRACTIONAL = {
    "events": "SELECT COUNT(*) AS n FROM logs WINDOW 2.5 EVENTS",
    "ticks": "SELECT COUNT(*) AS n FROM logs WINDOW 1.5 TICKS",
    "hop": "SELECT COUNT(*) AS n FROM logs GROUP APPLY u WINDOW 4 TICKS HOP 0.5 TICKS",
    "grouped-events": "SELECT SUM(v) AS s FROM logs GROUP APPLY u WINDOW 0.5 EVENTS",
}


@pytest.mark.parametrize("run", ["parse", "run_sql"])
@pytest.mark.parametrize("case", sorted(FRACTIONAL))
def test_a_window_that_is_not_whole_is_refused(case, run):
    """Was truncated by ``int()``: ``WINDOW 2.5 EVENTS`` ran as 2 events,
    ``WINDOW 1.5 TICKS`` as 1 tick."""
    sql = FRACTIONAL[case]
    rows = [{"Time": t, "u": t % 2, "v": t} for t in range(8)]
    with pytest.raises(StreamSQLError, match="is not a whole number of"):
        parse(sql) if run == "parse" else run_sql(sql, {"logs": rows})


def test_a_fraction_of_a_larger_unit_is_whole():
    """Half an hour is 1,800 ticks, and 2.0 events are two."""
    rows = [{"Time": t * 600} for t in range(10)]
    half = run_sql("SELECT COUNT(*) AS n FROM logs WINDOW 0.5 HOURS", {"logs": rows})
    assert normalize(half) == normalize(
        run_sql("SELECT COUNT(*) AS n FROM logs WINDOW 1800 SECONDS", {"logs": rows})
    )
    two = run_sql("SELECT COUNT(*) AS n FROM logs WINDOW 2.0 EVENTS", {"logs": rows})
    assert normalize(two) == normalize(
        run_sql("SELECT COUNT(*) AS n FROM logs WINDOW 2 EVENTS", {"logs": rows})
    )


# -- int sums past 2^63 ---------------------------------------------------------------


def _sum_query():
    return Query.source("logs", ("u", "v")).group_apply(
        "u", lambda g: g.window(10).sum("v", into="s")
    )


#: rows whose per-key totals pass 2^63 (each value fits int64): every
#: row in one chunk, or the first chunks small and a later one large
BIG_SUMS = {
    "large-from-the-start": [
        {"Time": t, "u": t % 2, "v": (2**62 + t) * (-1) ** (t % 3)} for t in range(1, 9)
    ],
    "large-in-a-later-chunk": [
        {"Time": t, "u": t % 2, "v": t if t < 40 else 2**62 + t} for t in range(1, 49)
    ],
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", sorted(BIG_SUMS))
def test_an_int_sum_past_2_63_is_exact(case, entry):
    rows = BIG_SUMS[case]
    want = normalize(ref_plan(_sum_query().to_plan(), {"logs": point_events(rows)}))
    assert max(abs(e.payload["s"]) for e in want) >= 2**63  # the cell passes 2^63
    out, _ = ENTRY_POINTS[entry][0](_sum_query(), rows)
    assert normalize(out) == want


@pytest.mark.parametrize("case", sorted(BIG_SUMS))
def test_the_array_form_names_its_fallback_and_never_wraps(case):
    rows = BIG_SUMS[case]
    engine = Engine(context=RunContext(batch_size=8))
    out = engine.run(_sum_query(), {"logs": rows})
    stats = engine.last_stats
    rerun = stats.resolutions[keyed.RERUN_ON_CHAINS]
    assert "an int past the int64 bounds" in rerun["reason"] and rerun["count"] == 1
    # the counts are the re-run's: no row swept as arrays, every row decoded
    assert stats.array_swept_rows == 0 and stats.decoded_rows == len(rows)
    assert normalize(out) == normalize(ref_plan(_sum_query().to_plan(),
                                                {"logs": point_events(rows)}))


# -- map and reduce output that is not rows ----------------------------------------

STAGE_ROWS = [{"Time": t, "k": t % 3} for t in range(12)]


def _map_none(rows):
    return None


def _map_ints(rows):
    return [row["Time"] for row in rows]


def _reduce_none(idx, rows):
    return None


def _reduce_ints(idx, rows):
    return [3]


def _keep(rows):
    return rows


def _count(idx, rows):
    return [{"Time": 0, "n": len(rows)}] if rows else []


#: case -> (map function, reducer, task named, offending value)
NOT_ROWS = {
    "map-returns-none": (_map_none, _count, "map task 0", "None"),
    "map-emits-an-int": (_map_ints, _count, "map task 0", "0"),
    "reduce-returns-none": (_keep, _reduce_none, "reduce partition 0", "None"),
    "reduce-returns-ints": (_keep, _reduce_ints, "reduce partition 0", "3"),
}


def _run_stage(case, quarantine):
    map_fn, reducer, _, _ = NOT_ROWS[case]
    fs = DistributedFileSystem()
    fs.write("in", [dict(row) for row in STAGE_ROWS], num_partitions=2)
    attempts = []

    def counted(idx, rows):
        attempts.append(idx)
        return reducer(idx, rows)

    stage = MapReduceStage("s", key_by_columns(["k"]), counted, num_partitions=2)
    cluster = Cluster(fs=fs, context=RunContext(quarantine=quarantine))
    return cluster, fs, attempts, lambda: cluster.run_stage(stage, {"in": map_fn}, "out")


@pytest.mark.parametrize("case", sorted(NOT_ROWS))
def test_output_that_is_not_rows_is_named_on_the_first_attempt(case):
    _, _, task, value = NOT_ROWS[case]
    _, _, attempts, run = _run_stage(case, quarantine=False)
    with pytest.raises((ValueError, StageExecutionError)) as info:
        run()
    error = info.value
    if case.startswith("reduce"):
        assert type(error) is StageExecutionError and error.attempt == 1
        assert attempts.count(error.partition) == 1  # not re-run
        error = error.cause
    assert type(error) is ValueError
    assert str(error).startswith(f"stage 's' {task} returned {value}")


@pytest.mark.parametrize("case", sorted(NOT_ROWS))
def test_output_that_is_not_rows_under_quarantine(case):
    """A map function that emits an int per row has each row
    dead-lettered with the named error; one whose whole output is not
    rows, or a reducer's, fails the stage as a task no row explains."""
    _, _, task, _ = NOT_ROWS[case]
    cluster, fs, _, run = _run_stage(case, quarantine=True)
    if case == "map-emits-an-int":
        out = run()
        assert out.all_rows() == []
        aside = fs.read("out.quarantine").all_rows()
        assert len(aside) == len(STAGE_ROWS)
        assert all(f"stage 's' map task" in row["_error"] for row in aside)
        return
    with pytest.raises((ValueError, StageExecutionError)) as info:
        run()
    error = info.value.cause if isinstance(info.value, StageExecutionError) else info.value
    assert type(error) is ValueError and f"stage 's' {task} returned" in str(error)
