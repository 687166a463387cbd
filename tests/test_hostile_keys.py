"""Hostile GroupApply keys and sub-plans, at every entry point.

A sibling of ``test_hostile_time.py`` for the group key: each cell ends
in the correct result, the policy outcome (a dead letter), or a named
error — never a bare ``TypeError`` or ``RuntimeError`` from inside the
runtime.

* A row whose key value is unhashable (a list, a dict) is a
  ``ValueError`` naming the key column and the value on the keyed
  sweep, the flat chains and a nested GroupApply alike; a TiMR reducer's
  failure arrives as a ``StageExecutionError`` around it, and with
  quarantine on the row is dead-lettered.
* An aggregate over a value its kind cannot combine (a ``None`` to sum,
  a ``str`` to order beside ints) is a ``ValueError`` naming the kind,
  the column and the value, on the keyed sweep and the flat chains
  alike; a TiMR reducer fails with it once, not again on a re-run.
* A sub-plan that reads a source other than its group's input is
  refused when the plan is built, with a ``ValueError`` naming the
  source and the group keys — before any entry point runs it.
"""

import contextlib
import copy
from unittest import mock

import pytest

from repro.mapreduce import Cluster, DistributedFileSystem, StageExecutionError
from repro.runtime import RunContext
from repro.temporal import Engine, Query, StreamingEngine, normalize
from repro.temporal.event import rows_to_events
from repro.temporal.operators import AggSpec
from repro.timr import TiMR
from repro.timr import compile as timr_compile
from tests.timr.test_boundary import ref_reducer

#: the three per-key shapes: the keyed sweep, a flat chain, and a
#: nested GroupApply inside a flat chain
SHAPES = {
    "keyed": lambda g: g.window(10).count(into="n"),
    "flat": lambda g: g.window(10).count(into="n").where(lambda p: p["n"] > 0),
    "nested": lambda g: g.group_apply("S", lambda gg: gg.window(10).count(into="n")),
}

UNHASHABLE = {"list": [1], "dict": {"a": 1}}

GOOD = [{"Time": 1, "UserId": "a", "S": 0}, {"Time": 3, "UserId": "a", "S": 1}]


def grouped(shape):
    return Query.source("logs", ("UserId", "S")).group_apply("UserId", SHAPES[shape])


def engine_run(query, rows):
    return list(Engine().run(query, {"logs": rows})), []


def stream(query, rows):
    engine = StreamingEngine(query)
    out = []
    for row in rows:
        out.extend(engine.push("logs", row))
    out.extend(engine.flush())
    return out, []


def timr(quarantine):
    def run(query, rows):
        fs = DistributedFileSystem()
        fs.write("logs", copy.deepcopy(rows), require_time_column=False)
        cluster = Cluster(fs=fs, context=RunContext(quarantine=quarantine))
        result = TiMR(cluster).run(query, job_name="j")
        aside = fs.read("j.quarantine").all_rows() if fs.exists("j.quarantine") else []
        return rows_to_events(result.output_rows()), [r["_row"] for r in aside]

    return run


ENTRY_POINTS = {
    "engine": (engine_run, "raise"),
    "stream": (stream, "raise"),
    "timr": (timr(False), "raise"),
    "timr-quarantine": (timr(True), "aside"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("value", sorted(UNHASHABLE))
def test_an_unhashable_key_is_named_or_set_aside(value, shape, entry):
    run, outcome = ENTRY_POINTS[entry]
    bad = {"Time": 2, "UserId": copy.deepcopy(UNHASHABLE[value]), "S": 0}
    rows = [dict(GOOD[0]), bad, dict(GOOD[1])]
    if outcome == "raise":
        with pytest.raises(Exception) as info:
            run(grouped(shape), rows)
        exc = info.value
        if isinstance(exc, StageExecutionError):
            exc = exc.__cause__  # a reducer's failure, retried and reported
        assert type(exc) is ValueError
        assert "'UserId'" in str(exc) and repr(UNHASHABLE[value]) in str(exc)
        return
    out, aside = run(grouped(shape), rows)
    assert normalize(out) == normalize(Engine().run(grouped(shape), {"logs": GOOD}))
    assert [row["UserId"] for row in aside] == [UNHASHABLE[value]]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_key_error_fails_its_reducer_once(shape):
    """An unhashable key raises the same on every attempt, so the
    partition's reducer runs once and the error says attempt 1 (a
    re-run that could only fail again used to report attempt 2)."""
    calls = []
    make = timr_compile.make_reducer

    def counting(*args, **kwargs):
        reducer = make(*args, **kwargs)

        def run(index, rows):
            calls.append(index)
            return reducer(index, rows)

        return run

    bad = {"Time": 2, "UserId": [1], "S": 0}
    with mock.patch.object(timr_compile, "make_reducer", counting), \
            pytest.raises(StageExecutionError) as info:
        timr(False)(grouped(shape), [dict(GOOD[0]), bad, dict(GOOD[1])])
    assert info.value.attempt == 1 and "failed on attempt 1 " in str(info.value)
    assert calls.count(info.value.partition) == 1


#: rows whose aggregate column holds a value some kinds cannot combine,
#: by the value
UNCOMBINABLE = {
    "none": [1, None, 2],
    "str-beside-ints": [1, "x", 2],
}


@pytest.mark.parametrize("entry", ["engine", "stream", "timr"])
@pytest.mark.parametrize("flat", [False, True], ids=["keyed", "flat"])
@pytest.mark.parametrize("kind", ["sum", "avg", "stddev", "min", "max"])
@pytest.mark.parametrize("values", sorted(UNCOMBINABLE))
def test_an_aggregate_over_a_value_it_cannot_combine_is_named(values, kind, flat, entry):
    """Was a bare ``TypeError`` from inside the sweep (``+=`` on ``None``,
    ``<`` between ``None`` and an int), and a TiMR reducer re-ran and
    failed on attempt 2."""
    column = UNCOMBINABLE[values]
    def sub(g):
        q = g.window(5).aggregate(AggSpec(kind, "out", "v"))
        return q.where(lambda p: True) if flat else q

    query = Query.source("logs", ("u", "v")).group_apply("u", sub)
    rows = [{"Time": t, "u": 0, "v": v} for t, v in enumerate(column, 1)]
    with pytest.raises(Exception) as info:
        ENTRY_POINTS[entry][0](query, rows)
    exc = info.value
    if isinstance(exc, StageExecutionError):
        assert exc.attempt == 1 and "failed on attempt 1 " in str(exc)
        exc = exc.__cause__
    assert type(exc) is ValueError and exc.data_error
    assert f"aggregate {kind} over column 'v'" in str(exc) and repr(column[1]) in str(exc)


def reads_other():
    return Query.source("logs").group_apply(
        "UserId", lambda g: g.union(Query.source("other"))
    )


SOURCES = {
    "engine-empty": lambda: Engine().run(reads_other(), {"logs": []}),
    "engine": lambda: Engine().run(reads_other(), {"logs": GOOD, "other": []}),
    "stream": lambda: StreamingEngine(reads_other()),
    "timr": lambda: timr(False)(reads_other(), GOOD),
}


@pytest.mark.parametrize("entry", sorted(SOURCES))
def test_a_sub_plan_reading_another_source_is_refused_when_built(entry):
    with pytest.raises(ValueError) as info:
        SOURCES[entry]()
    assert "'other'" in str(info.value) and "['UserId']" in str(info.value)


def test_a_nested_sub_plan_reading_the_outer_group_input_is_refused():
    """An inner sub-plan that captured the outer one's group input would
    read the wrong key's events; it is refused when the plan is built."""
    with pytest.raises(ValueError, match=r"\['S'\] reads another GroupApply's group input"):
        Query.source("logs").group_apply(
            "UserId", lambda g: g.group_apply("S", lambda gg: g.window(5))
        )


# -- hostile keys and aggregate columns over a source of rows -----------------
#
# ``Engine.run`` may run a keyed sweep straight off a source's rows
# (docs/EXECUTION.md, "Rows"), where ``Time`` and ``_re`` are columns of
# the row but no column of the decoded payload. Each cell must raise what
# the same rows decoded to events first raise, type and message: a
# missing key names the decoded payload, and a key or aggregate column
# named ``Time`` or ``_re`` is missing from it.


def _windowed(keys, agg):
    return lambda: Query.source("logs").group_apply(keys, lambda g: agg(g.window(10)))


def _count(g):
    return g.count(into="n")


#: name -> (query, the rows, what the error names)
HOSTILE = {
    "missing-key": (
        _windowed("UserId", _count),
        [dict(GOOD[0]), {"Time": 2, "S": 0}, dict(GOOD[1])],
        ["'UserId'", "payload {'S': 0}"],
    ),
    "missing-key-of-two": (
        _windowed(("UserId", "S"), _count),
        [dict(GOOD[0]), {"Time": 2, "UserId": "a"}, dict(GOOD[1])],
        ["'S'", "payload {'UserId': 'a'}"],
    ),
    "unhashable-key": (
        _windowed("UserId", _count),
        [dict(GOOD[0]), {"Time": 2, "UserId": [1], "S": 0}, dict(GOOD[1])],
        ["'UserId'", "[1]"],
    ),
    "key-Time": (_windowed("Time", _count), GOOD, ["'Time'", "missing"]),
    "key-_re": (
        _windowed(("UserId", "_re"), _count),
        [{**row, "_re": row["Time"] + 1} for row in GOOD],
        ["'_re'", "missing"],
    ),
    "sum-Time": (_windowed("UserId", lambda g: g.sum("Time", into="s")), GOOD, ["'Time'"]),
    "max-_re": (
        _windowed("UserId", lambda g: g.max("_re", into="m")),
        [{**row, "_re": row["Time"] + 1} for row in GOOD],
        ["'_re'"],
    ),
    "sum-missing-column": (
        _windowed("UserId", lambda g: g.sum("S", into="s")),
        [dict(GOOD[0]), {"Time": 2, "UserId": "a"}, dict(GOOD[1])],
        ["'S'"],
    ),
}


def _raised(query, sources):
    with pytest.raises(Exception) as info:
        Engine().run(query(), sources)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_key_over_rows_raises_what_it_raises_over_events(case):
    query, rows, named = HOSTILE[case]
    got = _raised(query, {"logs": copy.deepcopy(rows)})
    assert got == _raised(query, {"logs": rows_to_events(copy.deepcopy(rows))})
    assert got[0] in (KeyError, ValueError)
    for part in named:
        assert part in got[1], (got[1], part)


# -- ``_src``, the column a multi-input stage's map phase writes ---------------
#
# A multi-input TiMR stage tags each row with the input it came from
# (``_src``), and the reducer's sources never show it: a GroupApply keyed
# on it or aggregating it fails as it does on a payload without it, a
# one-input stage keeps a user's ``_src`` column as any other, and a
# kernel that raises in a map task is dead-lettered or raised, row by
# row. Each cell must give what the reducer that decoded its partition
# with ``point_events`` and popped the tag gave (``ref_reducer``, the
# reference of ``tests/timr/test_boundary.py``): output, dead letters,
# or the error's type and message.

TAGGED_ROWS = [{"Time": t, "k": "xy"[t % 2], "v": t % 4} for t in range(12)]


def _beside_b(a):
    b = Query.source("b").exchange("k").project(lambda p: {"k": p["k"], "n": p["v"]})
    return a.union(b)


def _explodes(p):
    return 12 // (p["v"] - 3) != 0


TAGGED = {
    # multi-input stages: ``_src`` is the map phase's, not the payload's
    "key-_src": (
        lambda: _beside_b(Query.source("a").exchange("k").group_apply(
            ("k", "_src"), lambda g: g.window(5).count(into="n")
        )),
        {"a": TAGGED_ROWS, "b": TAGGED_ROWS},
    ),
    "sum-_src": (
        lambda: _beside_b(Query.source("a").exchange("k").group_apply(
            "k", lambda g: g.shift(1).hopping_window(4, 4).sum("_src", into="n")
        )),
        {"a": TAGGED_ROWS, "b": TAGGED_ROWS},
    ),
    # one input: a user's ``_src`` is a column like any other
    "user-_src-key": (
        lambda: Query.source("a").exchange("_src").group_apply(
            "_src", lambda g: g.window(5).count(into="n")
        ),
        {"a": [{**row, "_src": row["v"] % 2} for row in TAGGED_ROWS]},
    ),
    "user-_src-kept": (
        lambda: Query.source("a").exchange("k").where(lambda p: p["v"] > 0),
        {"a": [{**row, "_src": "mine"} for row in TAGGED_ROWS]},
    ),
    # a folded where that raises on the rows with v == 3, alone on its
    # input and tagged beside another
    "kernel-raises": (
        lambda: Query.source("a").where(_explodes).exchange("k").group_apply(
            "k", lambda g: g.window(5).count(into="n")
        ),
        {"a": TAGGED_ROWS},
    ),
    "tagged-kernel-raises": (
        lambda: _beside_b(Query.source("a").where(_explodes).exchange("k")),
        {"a": TAGGED_ROWS, "b": TAGGED_ROWS},
    ),
}


def tagged_outcome(case, quarantine, reference):
    """What a TiMR run of ``case`` gives: ``("ok", output rows per
    partition, dead letters)`` or ``("raised", type, cause type,
    message)``."""
    query, datasets = TAGGED[case]
    fs = DistributedFileSystem()
    for name, rows in datasets.items():
        fs.write(name, copy.deepcopy(rows), num_partitions=2)
    cluster = Cluster(fs=fs, context=RunContext(quarantine=quarantine))
    with contextlib.ExitStack() as stack:
        if reference:
            stack.enter_context(mock.patch.object(
                timr_compile, "make_reducer",
                lambda fragment, span_layout=None, context=None: ref_reducer(fragment, []),
            ))
        try:
            result = TiMR(cluster).run(query(), job_name="j", num_partitions=2)
        except Exception as exc:
            cause = exc.__cause__ or exc
            return "raised", type(exc), type(cause), str(cause)
    aside = fs.read("j.quarantine").all_rows() if fs.exists("j.quarantine") else []
    return "ok", [[list(r.items()) for r in part] for part in result.output.partitions], aside


@pytest.mark.parametrize("quarantine", [False, True], ids=["raise", "quarantine"])
@pytest.mark.parametrize("case", sorted(TAGGED))
def test_src_cells_give_what_the_decoding_reducer_gave(case, quarantine):
    got = tagged_outcome(case, quarantine, reference=False)
    assert got == tagged_outcome(case, quarantine, reference=True)
    if case in ("key-_src", "sum-_src"):
        if quarantine:
            assert got[0] == "ok" and got[2]
            assert all(r["_site"] == "reduce" and r["_row"]["_src"] == "a" for r in got[2])
        else:
            assert got[1:3] == (StageExecutionError, KeyError) and "'_src'" in got[3]
    elif case.startswith("user-"):
        assert got[0] == "ok" and not got[2] and any(got[1])
        want = Engine().run(TAGGED[case][0](), TAGGED[case][1])
        assert normalize(rows_to_events(r for part in got[1] for r in map(dict, part))) == (
            normalize(want)
        )
    elif quarantine:
        assert got[0] == "ok" and any(got[1])
        assert [(r["_site"], r["_row"]["v"], r["_error"]) for r in got[2]] == [
            ("map", 3, "ZeroDivisionError('integer division or modulo by zero')")
        ] * 3
    else:
        assert got[1:] == (
            ZeroDivisionError, ZeroDivisionError, "integer division or modulo by zero"
        )
