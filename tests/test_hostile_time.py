"""Hostile ``Time`` values, at every entry point that reads rows.

Every layer decodes an M-R row with one codec (``temporal/event.py``:
``decode_row``, ``point_events``) under one rule for a usable time
(``temporal/time.py``: ``check_time``). So each cell below is one of:

* a usable row gives the same events on every path;
* an unusable row raises a ``ValueError`` naming the column and the
  value (``KeyError('Time')`` when the column is missing; a TiMR
  reducer's failure arrives as a ``StageExecutionError`` around it), or
* takes the entry point's policy outcome: the row is dropped or
  quarantined, and the output is the output without it.

No cell raises a ``TypeError``, and none silently accepts a ``bool``, a
NaN, a time at the end of time or one before its beginning. A row that is not a mapping gets the
same treatment at ``Engine.run``, each ``StreamingEngine`` policy and
``fs.write``.
"""

import copy
import math

import pytest

from repro.mapreduce import Cluster, DistributedFileSystem, StageExecutionError
from repro.runtime import RunContext
from repro.cli import main
from repro.data import GeneratorConfig, generate
from repro.data.io import save_dataset
from repro.temporal import MAX_TIME, MIN_TIME, Engine, Event, Query, StreamingEngine, normalize
from repro.temporal.event import decode_row, rows_to_events
from repro.timr import TiMR

FIRST = {"Time": 1, "u": "a"}
LAST = {"Time": 3, "u": "a"}

#: usable rows, and the event each one is
USABLE = {
    "float": ({"Time": 1.5, "u": "a"}, Event(1.5, 2.5, {"u": "a"})),
    "interval": ({"Time": 1, "_re": 5, "u": "a"}, Event(1, 5, {"u": "a"})),
}

#: unusable rows, the error an entry point without a policy raises, and
#: what its message must name
UNUSABLE = {
    "missing": ({"u": "a"}, KeyError, ["'Time'"]),
    "None": ({"Time": None, "u": "a"}, ValueError, ["'Time'", "None"]),
    "bool": ({"Time": True, "u": "a"}, ValueError, ["'Time'", "True"]),
    "str": ({"Time": "x", "u": "a"}, ValueError, ["'Time'", "'x'"]),
    "nan": ({"Time": math.nan, "u": "a"}, ValueError, ["'Time'", "nan"]),
    "inverted": ({"Time": 2, "_re": 2, "u": "a"}, ValueError, ["[2, 2)"]),
    "end-of-time": (
        {"Time": MAX_TIME, "u": "a"},
        ValueError,
        ["'Time'", str(MAX_TIME)],
    ),
    "before-time": (
        {"Time": MIN_TIME - 3, "u": "a"},
        ValueError,
        ["'Time'", str(MIN_TIME - 3)],
    ),
}


def grouped():
    """A windowed count, and a count over the rows' own lifetimes (which
    tells a point from an interval), per ``u``."""
    return Query.source("logs").group_apply(
        "u", lambda g: g.window(10).count(into="n").union(g.count(into="m"))
    )


def keyless():
    """A key-less single-input fragment with a bounded extent:
    span-partitioned under ``span_width``."""
    return Query.source("logs").count(into="m")


def folded_union():
    """A key-less two-input fragment over one dataset, one input through
    a folded stateless fragment: its stage's map phase decodes each row
    once for both."""
    logs = Query.source("logs")
    return logs.window(10).count(into="n").union(logs.count(into="m"))


# -- the entry points: each returns (output events, rows set aside) ------------


def engine_run(query, rows):
    return list(Engine().run(query, {"logs": rows})), []


def streaming(policy):
    def run(query, rows):
        engine = StreamingEngine(query, event_policy=policy)
        out = []
        for row in rows:
            out.extend(engine.push("logs", row))
        out.extend(engine.flush())
        aside = [q.item for q in engine.quarantined] + [None] * engine.dropped
        return out, aside

    return run


def timr_job(query, rows, quarantine, span_width=None):
    """``(output rows, dead-letter records)`` of one TiMR run."""
    fs = DistributedFileSystem()
    fs.write("logs", copy.deepcopy(rows), require_time_column=False)
    cluster = Cluster(fs=fs, context=RunContext(quarantine=quarantine))
    result = TiMR(cluster).run(query, job_name="j", span_width=span_width)
    records = fs.read("j.quarantine").all_rows() if fs.exists("j.quarantine") else []
    return result.output_rows(), records


def timr(quarantine, span_width=None):
    def run(query, rows):
        out, records = timr_job(query, rows, quarantine, span_width)
        return rows_to_events(out), [r["_row"] for r in records]

    return run


#: (id, query, run, what an unusable row gets: "raise"; "policy-raise",
#: the ValueError a streaming policy raises, its reason quoting the
#: decoder's error; "drop"; or "aside", set aside in a dead-letter list)
ENTRY_POINTS = [
    ("engine", grouped, engine_run, "raise"),
    ("stream-raise", grouped, streaming("raise"), "policy-raise"),
    ("stream-drop", grouped, streaming("drop"), "drop"),
    ("stream-quarantine", grouped, streaming("quarantine"), "aside"),
    ("timr", grouped, timr(False), "raise"),
    ("timr-quarantine", grouped, timr(True), "aside"),
    ("timr-span", keyless, timr(False, span_width=2), "raise"),
    ("timr-span-quarantine", keyless, timr(True, span_width=2), "aside"),
    ("timr-union", folded_union, timr(False, span_width=2), "raise"),
    ("timr-union-quarantine", folded_union, timr(True, span_width=2), "aside"),
]
entry_points = pytest.mark.parametrize(
    "query, run, outcome",
    [pytest.param(q, r, o, id=name) for name, q, r, o in ENTRY_POINTS],
)


def reference(query, events):
    """The query over already-decoded events."""
    return normalize(Engine().run(query(), {"logs": events}))


@entry_points
@pytest.mark.parametrize("row", sorted(USABLE))
def test_a_usable_row_gives_the_same_events_on_every_path(row, query, run, outcome):
    value, event = USABLE[row]
    out, aside = run(query(), [dict(FIRST), dict(value), dict(LAST)])
    expected = [Event(1, 2, {"u": "a"}), event, Event(3, 4, {"u": "a"})]
    assert normalize(out) == reference(query, expected)
    assert not aside


@entry_points
@pytest.mark.parametrize("row", sorted(UNUSABLE))
def test_an_unusable_row_is_named_or_set_aside(row, query, run, outcome):
    value, error, named = UNUSABLE[row]
    rows = [dict(FIRST), dict(value), dict(LAST)]
    if outcome in ("raise", "policy-raise"):
        with pytest.raises(Exception) as info:
            run(query(), rows)
        exc = info.value
        if isinstance(exc, StageExecutionError):
            # a reducer's failure, retried once and then reported
            assert row == "inverted"
            exc = exc.__cause__
        assert type(exc) is (ValueError if outcome == "policy-raise" else error)
        for part in named:
            assert part in str(exc), (str(exc), part)
        return
    out, aside = run(query(), rows)
    expected = [Event(1, 2, {"u": "a"}), Event(3, 4, {"u": "a"})]
    assert normalize(out) == reference(query, expected)
    # repr: a NaN is not equal to itself
    assert repr(aside) == repr([None] if outcome == "drop" else [value])


@pytest.mark.parametrize("quarantine", [False, True], ids=["raise", "quarantine"])
@pytest.mark.parametrize("row", sorted(UNUSABLE))
def test_a_folded_union_names_an_unusable_time(row, quarantine):
    """A multi-input fragment whose inputs carry folded kernels decodes
    each row once, in its stage's map phase: there an unusable ``Time``
    is a named error, or with quarantine on one dead letter at site
    ``map``, though two bindings read the row."""
    value, error, named = UNUSABLE[row]
    rows = [dict(FIRST), dict(value), dict(LAST)]
    if not quarantine:
        with pytest.raises(Exception) as info:
            timr_job(folded_union(), rows, False, span_width=2)
        assert type(info.value) is error
        for part in named:
            assert part in str(info.value)
        return
    out, records = timr_job(folded_union(), rows, True, span_width=2)
    assert out == timr_job(folded_union(), [dict(FIRST), dict(LAST)], False, span_width=2)[0]
    assert [(r["_site"], repr(r["_row"])) for r in records] == [("map", repr(value))]


#: a time before the beginning of time: ``Engine.run``, ``TiMR.run``,
#: ``decode_row`` and ``repro sql`` took it, and a first push refused it
#: as out of order (``< watermark``), so batch and streaming disagreed
BEFORE_TIME = {"Time": MIN_TIME - 3, "u": "a"}


def _sql_before_time(directory):
    """``repro sql`` over a snapshot whose first row is at ``BEFORE_TIME``:
    its exit code."""
    dataset = generate(GeneratorConfig(num_users=3, duration_days=0.5, seed=1))
    dataset.rows[0]["Time"] = BEFORE_TIME["Time"]
    save_dataset(dataset, str(directory), num_partitions=1)
    return main(["sql", "SELECT COUNT(*) AS n FROM logs WINDOW 6 HOURS", "--data",
                 str(directory)])


@pytest.mark.parametrize("entry", ["engine", "push", "timr", "decode_row", "sql"])
def test_a_time_before_the_beginning_of_time_is_named(entry, tmp_path, capsys):
    rows = [dict(BEFORE_TIME), dict(FIRST)]
    with pytest.raises(ValueError) as info:
        if entry == "engine":
            Engine().run(grouped(), {"logs": rows})
        elif entry == "push":
            StreamingEngine(grouped()).push("logs", dict(BEFORE_TIME))
        elif entry == "timr":
            timr_job(grouped(), rows, False)
        elif entry == "decode_row":
            decode_row(dict(BEFORE_TIME))
        elif _sql_before_time(tmp_path) == 2:
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            raise ValueError(err)
    for part in ["'Time'", str(MIN_TIME - 3), "not a usable time"]:
        assert part in str(info.value), (str(info.value), part)


#: rows that are not mappings of column to value, and what the error
#: names besides the row's position
NOT_ROWS = {
    "int": (5, ["int 5"]),
    "None": (None, ["NoneType None"]),
    "pairs": ([("Time", 1), ("u", 1)], ["list [('Time', 1), ('u', 1)]"]),
}


@pytest.mark.parametrize(
    "run, outcome",
    [
        pytest.param(r, o, id=name)
        for name, _, r, o in ENTRY_POINTS
        if name == "engine" or name.startswith("stream-")
    ],
)
@pytest.mark.parametrize("row", sorted(NOT_ROWS))
def test_a_row_that_is_not_a_mapping_is_named_or_set_aside(row, run, outcome):
    value, named = NOT_ROWS[row]
    rows = [dict(FIRST), copy.deepcopy(value), dict(LAST)]
    if outcome in ("raise", "policy-raise"):
        with pytest.raises(ValueError) as info:
            run(grouped(), rows)
        assert type(info.value) is ValueError
        # a batch names the row's position; a push is one row
        for part in named + (["row 1"] if outcome == "raise" else []):
            assert part in str(info.value), (str(info.value), part)
        return
    out, aside = run(grouped(), rows)
    expected = [Event(1, 2, {"u": "a"}), Event(3, 4, {"u": "a"})]
    assert normalize(out) == reference(grouped, expected)
    assert aside == ([None] if outcome == "drop" else [value])


@pytest.mark.parametrize("row", sorted(NOT_ROWS))
def test_fs_write_names_a_row_that_is_not_a_mapping(row):
    value, named = NOT_ROWS[row]
    with pytest.raises(ValueError) as info:
        DistributedFileSystem().write("logs", [dict(FIRST), value, dict(LAST)])
    for part in named + ["row 1"]:
        assert part in str(info.value), (str(info.value), part)


#: a row one tick before the end of time, and what a 10-tick window
#: stretches it to: a lifetime past ``MAX_TIME``
LATEST = {"Time": MAX_TIME - 1, "u": "a"}
STRETCHED = (MAX_TIME - 1, MAX_TIME + 9)


@pytest.mark.parametrize(
    "query, payload",
    [
        pytest.param(
            lambda: Query.source("logs").window(10).count(into="n"),
            {"n": 1},
            id="aggregate",
        ),
        pytest.param(
            lambda: Query.source("logs").group_apply(
                "u", lambda g: g.window(10).count(into="n")
            ),
            {"n": 1, "u": "a"},
            id="keyed-sweep",
        ),
        pytest.param(
            lambda: Query.source("logs")
            .window(10)
            .udo_snapshot(lambda active: [{"n": len(active)}]),
            {"n": 1},
            id="snapshot-udo",
        ),
    ],
)
@pytest.mark.parametrize("run", [engine_run, streaming("raise")], ids=["engine", "stream"])
def test_a_lifetime_past_the_end_of_time_reaches_the_output(query, payload, run):
    """The flush retires every pane, also one whose RE lies past
    ``MAX_TIME``, as ``where`` passes such an event through."""
    out, _ = run(query(), [dict(FIRST), dict(LATEST)])
    assert normalize(out) == [
        Event(1, 11, payload),
        Event(*STRETCHED, payload),
    ]
    passed, _ = run(Query.source("logs").window(10).where(lambda p: True), [dict(LATEST)])
    assert [(e.le, e.re) for e in passed] == [STRETCHED]


# -- a keyed GroupApply fed straight from the rows ------------------------------
#
# ``grouped()`` is a union, so it never reaches the keyed sweep, which
# ``Engine.run`` may run off a source's rows without decoding them
# (docs/EXECUTION.md, "Rows"). The sweeps below do, over a ``v`` column;
# each hostile row must give what the same rows give decoded to events
# by the codec first: the same output, or the same error, type and
# message, raised by the codec itself.


def keyed_count():
    return Query.source("logs").group_apply("u", lambda g: g.window(10).count(into="n"))


def keyed_sum():
    return Query.source("logs").group_apply("u", lambda g: g.window(10).sum("v", into="s"))


#: an ``_re`` of each hostile kind, and what the error names
HOSTILE_RE = {
    "re-None": ({"Time": 2, "_re": None, "u": "a"}, ValueError, ["'_re'", "None"]),
    "re-bool": ({"Time": 2, "_re": True, "u": "a"}, ValueError, ["'_re'", "True"]),
    "re-str": ({"Time": 2, "_re": "x", "u": "a"}, ValueError, ["'_re'", "'x'"]),
    "re-inverted": ({"Time": 2, "_re": 1, "u": "a"}, ValueError, ["[2, 1)"]),
    "re-nan": ({"Time": 2, "_re": math.nan, "u": "a"}, ValueError, ["'_re'", "nan"]),
}

#: every hostile row: ``(row, error or None, what the error names)``
HOSTILE_ROWS = {
    **{name: (value, None, []) for name, (value, _) in USABLE.items()},
    "re-float": ({"Time": 2, "_re": 2.5, "u": "a"}, None, []),
    **UNUSABLE,
    **HOSTILE_RE,
    **{name: (value, ValueError, named + ["row 1"]) for name, (value, named) in NOT_ROWS.items()},
}


def with_values(rows):
    """``rows`` with a ``v`` column on each mapping, for the sum."""
    return [
        {**row, "v": i + 1} if isinstance(row, dict) else copy.deepcopy(row)
        for i, row in enumerate(rows)
    ]


def outcome(query, sources):
    """What ``Engine.run`` gives: the output events in order with their
    payloads' column order, or the error's type and message."""
    try:
        out = Engine().run(query(), sources)
    except Exception as exc:
        return type(exc), str(exc)
    return [(e.le, e.re, list(e.payload.items())) for e in out]


@pytest.mark.parametrize("query", [keyed_count, keyed_sum], ids=["count", "sum"])
@pytest.mark.parametrize("row", sorted(HOSTILE_ROWS))
def test_a_keyed_sweep_over_rows_gives_what_the_decoded_rows_give(row, query):
    value, error, named = HOSTILE_ROWS[row]
    rows = with_values([dict(FIRST), value, dict(LAST)])
    got = outcome(query, {"logs": rows})
    try:
        events = rows_to_events(with_values([dict(FIRST), value, dict(LAST)]))
    except Exception as exc:
        # the codec refuses the row: so must the run, in the same words
        assert got == (type(exc), str(exc))
        assert type(exc) is error
        for part in named:
            assert part in str(exc), (str(exc), part)
        return
    assert error is None
    assert got == outcome(query, {"logs": events})
    assert len(got) >= 2


#: a source of events with something else after its first event
NOT_EVENTS = {
    "row": ({"Time": 3, "u": "a"}, ["row 1", "dict", "{'Time': 3, 'u': 'a'}"]),
    "int": (5, ["row 1", "int 5"]),
    "None": (None, ["row 1", "NoneType None"]),
}


@pytest.mark.parametrize("item", sorted(NOT_EVENTS))
@pytest.mark.parametrize("query", [grouped, keyed_count], ids=["grouped", "keyed"])
def test_a_source_of_events_names_what_is_not_an_event(query, item):
    """The reverse of a row source with an ``Event`` in it, which is
    already a named ``ValueError`` (``NOT_ROWS``)."""
    value, named = NOT_EVENTS[item]
    events = [Event(1, 2, {"u": "a"}), copy.deepcopy(value), Event(4, 5, {"u": "a"})]
    with pytest.raises(ValueError) as info:
        Engine().run(query(), {"logs": events})
    for part in named + ["not an Event"]:
        assert part in str(info.value), (str(info.value), part)
    with pytest.raises(ValueError) as info:
        Engine().run(query(), {"logs": [dict(FIRST), Event(4, 5, {"u": "a"})]})
    assert "row 1 is Event" in str(info.value)


@pytest.mark.parametrize("batch_size", [2, 4096])
def test_an_unusable_re_fails_the_run_before_any_operator_runs(batch_size):
    """A source's ``_re``s are checked before its first chunk is fed, as
    the codec checks a whole list: an unusable one in a later chunk
    fails the run with its own error, though a ``where`` would raise on
    the first chunk."""

    def refuse(payload):
        raise RuntimeError("the where ran")

    rows = [{"Time": t, "u": "a"} for t in range(8)] + [{"Time": 9, "_re": 9, "u": "a"}]
    engine = Engine(context=RunContext(batch_size=batch_size))
    with pytest.raises(ValueError, match=r"\[9, 9\)"):
        engine.run(Query.source("logs").where(refuse), {"logs": rows})
    with pytest.raises(RuntimeError, match="the where ran"):
        engine.run(Query.source("logs").where(refuse), {"logs": rows[:8]})
