"""The keyed GroupApply sweep: no chain per key, same rows as the chains.

A GroupApply whose per-key plan is stateless stages feeding one
aggregate runs as one :class:`~repro.runtime.keyed.KeyedAggregate` over
all keys (docs/EXECUTION.md). ``test_wake_scheduling.py`` holds it to
the per-key chains call for call on one key column; this file adds the
batch driver at the scale shapes' geometry, compound keys, the error a
missing key column raises, and the work it no longer does, as counts.

The sweep emits rows ``(le, re, *values)`` in the node's layout; a
keyed root's rows reach ``EventColumns`` with no ``Event`` built. The
layout cases below hold that path to the chains, payload column order
included, in every driver that can end at a keyed root.
"""

import contextlib
import random
from unittest import mock

import pytest

from repro.mapreduce import Cluster, DistributedFileSystem
from repro.runtime import RunContext, dataflow, keyed
from repro.temporal import Engine, Query, StreamingEngine
from repro.temporal.event import TIMES_UNPACKED, Event, EventColumns, LayoutRows
from repro.temporal.operators import AggSpec
from repro.temporal.time import hours
from repro.timr import TiMR

from tests.runtime.test_wake_scheduling import drive_in_batches, raw, unfused_reference

SERIAL = RunContext(executor="serial")


def scale_rows(n, users=97, seed=3, span=hours(24)):
    """``scale_rows``-shaped input: sorted times over ``span`` (a day),
    uniform users."""
    rng = random.Random(seed)
    times = sorted(rng.randrange(span) for _ in range(n))
    return [
        {"Time": t, "UserId": rng.randrange(users), "StreamId": rng.randrange(3),
         "Clicks": rng.randrange(3)}
        for t in times
    ]


SHAPES = {
    "scale_sliding": lambda g: g.window(hours(1)).sum("Clicks"),
    "scale_hopping": lambda g: g.hopping_window(hours(12), hours(1)).count(),
    "kez_totals": lambda g: g.shift(1).hopping_window(hours(6), hours(6)).aggregate(
        AggSpec("sum", "TotalClicks", "Clicks"), AggSpec("count", "TotalImpr")
    ),
}


def run(query, rows):
    return Engine(context=SERIAL).run(query, {"logs": rows}, validate=False)


@pytest.mark.parametrize("keys", [("UserId",), ("UserId", "StreamId")])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_keyed_equals_chains_in_the_batch_driver(shape, keys):
    """Raw order, not just the relation: tied LEs across keys merge in
    activation order in both."""
    rows = scale_rows(12_000)
    query = Query.source("logs", ("Time", "UserId", "StreamId", "Clicks")).group_apply(
        keys, SHAPES[shape]
    )
    keyed_out = run(query, rows)
    with unfused_reference():
        chained = run(query, rows)
    assert len(keyed_out) > 300
    assert raw(keyed_out) == raw(chained)


def test_compound_keys_per_advance_call():
    rows = scale_rows(2500, users=5)
    query = Query.source("logs", ("StreamId", "UserId", "Clicks")).group_apply(
        ("StreamId", "UserId"), lambda g: g.hopping_window(12, 4).sum("Clicks", into="s")
    )
    keyed_calls = drive_in_batches(query, rows)
    with unfused_reference():
        chained = drive_in_batches(query, rows)
    assert keyed_calls == chained


def test_no_chain_per_key():
    """The gate, as counts: one ``KeyState`` per distinct key and no
    ``_LinearChain`` at all, where the reference builds one chain per
    key."""
    rows = scale_rows(12_000)
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES["scale_hopping"]
    )
    built = {"chains": 0, "states": 0}

    class CountingChain(dataflow._LinearChain):
        __slots__ = ()

        def __init__(self, *args):
            built["chains"] += 1
            super().__init__(*args)

    class CountingState(keyed.KeyState):
        __slots__ = ()

        def __init__(self, *args):
            built["states"] += 1
            super().__init__(*args)

    with mock.patch.object(dataflow, "_LinearChain", CountingChain), \
            mock.patch.object(keyed, "KeyState", CountingState):
        run(query, rows)
        assert built == {"chains": 0, "states": 97}
        with unfused_reference():
            run(query, rows)
    assert built == {"chains": 97, "states": 97}


@pytest.mark.parametrize("keys", ["UserId", ("UserId", "StreamId")])
def test_missing_key_column_raises_as_the_chains_do(keys):
    events = scale_rows(50)
    del events[17]["UserId"]
    query = Query.source("logs").group_apply(keys, SHAPES["scale_hopping"])
    with pytest.raises(KeyError) as keyed_error:
        run(query, events)
    with unfused_reference(), pytest.raises(KeyError) as chain_error:
        run(query, events)
    assert str(keyed_error.value) == str(chain_error.value)
    assert "GroupApply key column 'UserId' missing from payload" in str(
        keyed_error.value
    )


# -- rows in the layout: keyed output ≡ the chains, column order included ------


def ordered(events):
    """Each event with its payload's column order spelled out."""
    return [(e.le, e.re, list(e.payload.items())) for e in events]


@contextlib.contextmanager
def packed_batches(kinds):
    """Record the type of every batch ``EventColumns`` packs."""
    extend = EventColumns._extend

    def recording(self, batch):
        kinds.append(type(batch))
        extend(self, batch)

    with mock.patch.object(EventColumns, "_extend", recording):
        yield


LAYOUT_CASES = {
    # (query over logs, the root's payload columns)
    "two-aggregates": (
        lambda q: q.group_apply("UserId", lambda g: g.window(hours(1)).aggregate(
            AggSpec("sum", "s", "Clicks"), AggSpec("count", "n")
        )),
        ["s", "n", "UserId"],
    ),
    "two-column-key": (
        lambda q: q.group_apply(
            ("UserId", "StreamId"), lambda g: g.window(hours(1)).sum("Clicks")
        ),
        ["Sum", "UserId", "StreamId"],
    ),
    "key-named-like-output": (
        lambda q: q.group_apply(
            ("StreamId", "UserId"), lambda g: g.window(hours(1)).count(into="UserId")
        ),
        ["UserId", "StreamId"],
    ),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_keyed_root_rows_equal_the_chains(case):
    build, columns = LAYOUT_CASES[case]
    rows = scale_rows(6000)
    query = build(Query.source("logs", ("Time", "UserId", "StreamId", "Clicks")))
    kinds = []
    with packed_batches(kinds):
        keyed_out = run(query, rows)
    with unfused_reference():
        chained = run(query, rows)
    assert LayoutRows in kinds and list not in kinds  # every batch was rows
    assert len(keyed_out) > 300
    assert ordered(keyed_out) == ordered(chained)
    assert list(keyed_out[0].payload) == columns
    # the rows of one layout pack as the events did: one run, no row kept whole
    assert keyed_out._keys == chained._keys == [tuple(columns)]
    assert keyed_out._run_rows == chained._run_rows


def test_float_les_still_fall_back_to_lists():
    rows = [{**row, "Time": row["Time"] + 0.5} for row in scale_rows(3000)]
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES["scale_sliding"]
    )
    engine = Engine(context=SERIAL)
    keyed_out = engine.run(query, {"logs": rows}, validate=False)
    keyed_found = engine.last_stats.resolutions[TIMES_UNPACKED]
    with unfused_reference():
        chained = engine.run(query, {"logs": rows}, validate=False)
    assert ordered(keyed_out) == ordered(chained)
    assert keyed_found == engine.last_stats.resolutions[TIMES_UNPACKED]
    assert keyed_found["count"] == len(keyed_out) > 0
    assert isinstance(keyed_out.les, list) and isinstance(keyed_out.les[0], float)


def test_keyed_node_under_a_where_releases_events():
    """Not the root: the rows become events on entering the GroupApply's
    output log, and the ``Where`` reads them as any events."""
    rows = scale_rows(6000)
    query = (
        Query.source("logs", ("Time", "UserId", "Clicks"))
        .group_apply("UserId", SHAPES["scale_sliding"])
        .where(lambda p: p["Sum"] > 1)
    )
    kinds = []
    with packed_batches(kinds):
        keyed_out = run(query, rows)
    with unfused_reference():
        chained = run(query, rows)
    assert LayoutRows not in kinds
    assert len(keyed_out) > 100
    assert ordered(keyed_out) == ordered(chained)


def test_keyed_root_per_push():
    """``StreamingEngine.push`` returns a list of events per push, as
    before, with the same releases call for call."""
    rows = scale_rows(800, users=7)
    query = Query.source("logs", ("Time", "UserId", "StreamId", "Clicks")).group_apply(
        ("UserId", "StreamId"), lambda g: g.window(hours(1)).aggregate(
            AggSpec("sum", "s", "Clicks"), AggSpec("count", "UserId")
        )
    )

    def pushes():
        engine = StreamingEngine(query)
        calls = [engine.push("logs", dict(row)) for row in rows]
        calls.append(engine.flush())
        assert all(type(out) is list for out in calls)
        return [ordered(out) for out in calls]

    keyed_calls = pushes()
    with unfused_reference():
        chained = pushes()
    assert sum(map(len, keyed_calls)) > 300
    assert keyed_calls == chained


def test_keyed_root_in_a_timr_reducer():
    """The reducer's ``Engine.run`` packs the keyed root's rows and
    ``to_rows`` reads the columns: the output file is the chains'."""
    rows = scale_rows(4000)
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", lambda g: g.hopping_window(hours(2), hours(1)).aggregate(
            AggSpec("sum", "s", "Clicks"), AggSpec("count", "n")
        )
    )

    def output():
        fs = DistributedFileSystem()
        fs.write("logs", [dict(row) for row in rows], num_partitions=2)
        result = TiMR(Cluster(fs=fs)).run(
            query, job_name="j", num_partitions=3, validate=False
        )
        return [[list(row.items()) for row in part] for part in result.output.partitions]

    kinds = []
    with packed_batches(kinds):
        keyed_out = output()
    with unfused_reference():
        chained = output()
    assert LayoutRows in kinds
    assert sum(map(len, keyed_out)) > 300
    assert keyed_out == chained


# -- the gate: one Event built per input row -----------------------------------


@pytest.mark.parametrize("shape", ["scale_sliding", "scale_hopping"])
def test_one_event_built_per_input_row(shape):
    """Ingest builds one ``Event`` per row; a keyed root's outputs build
    none on their way into the result. At the benchmark's geometry (512
    users over three days) that was 2.41 and 2.25 per row while the
    sweep emitted events."""
    rows = scale_rows(20_000, users=512, span=hours(72))
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES[shape]
    )
    built = [0]
    init = Event.__init__

    def counting_init(self, le, re, payload):
        built[0] += 1
        init(self, le, re, payload)

    with mock.patch.object(Event, "__init__", counting_init):
        out = run(query, rows)
    assert len(out) > len(rows) / 5
    assert built[0] / len(rows) <= 1.0
