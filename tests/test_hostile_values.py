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
  int: the array form names its ``keyed.row_loop`` fallback and never
  wraps.
"""

import pytest

from repro.mapreduce import StageExecutionError
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
    loop = stats.resolutions[keyed.ROW_LOOP]
    assert "an int past the int64 bounds" in loop["reason"]
    # the chunks before the large one were swept as arrays
    assert stats.array_swept_rows + loop["count"] == len(rows)
    assert (stats.array_swept_rows > 0) == (case == "large-in-a-later-chunk")
    assert normalize(out) == normalize(ref_plan(_sum_query().to_plan(),
                                                {"logs": point_events(rows)}))
