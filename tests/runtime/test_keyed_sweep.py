"""A keyed GroupApply's two forms: the array form, and a chain per key.

Under the batch driver, a flow's own GroupApply whose per-key plan is
time windows, hops or shifts into a count or plain sum runs as one
:class:`~repro.runtime.keyed.KeyedAggregate` over all keys, in numpy
passes (docs/EXECUTION.md); every other GroupApply, and every one under
``StreamingEngine``, runs a chain per key. ``test_wake_scheduling.py``
holds the array form to the chains call for call on one key column;
this file adds the batch driver at the scale shapes' geometry, compound
keys, the error a missing key column raises, the two forms' gate, and
the work the array form does not do, as counts.

The array form releases its segments in the node's layout; a keyed
root's reach the result ``Batch`` with no ``Event`` built. The layout
cases below hold that path to the chains, payload column order included,
in every driver that can end at a keyed root.
"""

import contextlib
import inspect
import random
from unittest import mock

import pytest

from repro.bt.queries import per_keyword_count_query
from repro.bt.schema import BTConfig
from repro.mapreduce import Cluster, DistributedFileSystem
from repro.runtime import RunContext, dataflow, keyed
from repro.temporal import Engine, Query, StreamingEngine, explain, normalize
from repro.temporal import event
from repro.temporal.event import TIMES_UNPACKED, Batch, Event, point_events
from repro.temporal.operators import AggSpec, stateless
from repro.temporal.time import hours
from repro.timr import TiMR

from tests.runtime.test_top_level import TOP_SHAPES, top_sources
from tests.runtime.test_wake_scheduling import (
    drive_in_batches,
    raw,
    unfused_reference,
    wave_rows,
)

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
    """The gate, as counts: one sweep over every key and no
    ``_FlatChain`` but the flow's own, where the reference builds one
    chain per key."""
    rows = scale_rows(12_000)
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES["scale_hopping"]
    )
    built = {"chains": 0, "sweeps": 0}

    class CountingChain(dataflow._FlatChain):
        __slots__ = ()

        def __init__(self, *args):
            built["chains"] += 1
            super().__init__(*args)

    class CountingSweep(keyed.KeyedAggregate):
        def __init__(self, *args):
            built["sweeps"] += 1
            super().__init__(*args)

    with mock.patch.object(dataflow, "_FlatChain", CountingChain), \
            mock.patch.object(dataflow, "KeyedAggregate", CountingSweep):
        run(query, rows)
        assert built == {"chains": 1, "sweeps": 1}
        with unfused_reference():
            run(query, rows)
    assert built == {"chains": 1 + 1 + 97, "sweeps": 1}


def test_an_array_form_wave_advances_no_key_in_python():
    """Fed rows, a keyed count runs each wave as array passes over its due
    keys (``KeyedAggregate.wave``), and the flush as one sweep: no key
    advances a chain, at a wave or at the flush."""
    rows = scale_rows(12_000)
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES["scale_hopping"]
    )
    calls = {"wave": 0, "advance": 0}
    wave, advance = keyed.KeyedAggregate.wave, dataflow._FlatChain.advance

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    with mock.patch.object(keyed.KeyedAggregate, "wave", counted("wave", wave)), \
            mock.patch.object(dataflow._FlatChain, "advance", counted("advance", advance)):
        out = run(query, rows)
    assert len(out) > 300
    assert calls["wave"] > 1 and calls["advance"] == 0


def test_one_copy_of_the_endpoint_sweep():
    """Per-key chains run the aggregate's own endpoint sweep
    (``operators/aggregate.py``); the array form sweeps in numpy: no heap
    operation and no per-row sweep of its own, and one release, root or
    not."""
    source = inspect.getsource(keyed)
    assert "heappush" not in source and "heappop" not in source
    assert "endpoint_sweep" not in source.split('"""', 2)[2]  # past the docstring
    assert "keep" not in inspect.signature(keyed.KeyedAggregate.sweep).parameters


def test_two_forms_of_a_keyed_group_apply():
    """The per-row loop is gone: a keyed node under ``StreamingEngine``
    holds a chain per key, and an event-fed keyed count under
    ``Engine.run`` is swept as arrays."""
    assert not hasattr(keyed, "KeyState")
    assert not hasattr(keyed.KeyedAggregate, "advance")
    assert not hasattr(stateless, "spec_lifetimes")
    rows = scale_rows(600, users=7)
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES["scale_hopping"]
    )
    stream = StreamingEngine(query)
    for row in rows:
        stream.push("logs", dict(row))
    (node,) = stream._flow.group_schedulers()
    assert node._keyed is None and len(node._groups) == 7
    assert all(type(chain) is dataflow._FlatChain for chain in node._groups.values())
    engine = Engine(context=SERIAL)
    out = engine.run(query, {"logs": point_events(rows)}, validate=False)
    assert engine.last_stats.array_swept_rows == len(rows)
    assert engine.last_stats.decoded_rows == 0
    with unfused_reference():
        assert raw(out) == raw(run(query, point_events(rows)))


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
    """Record every batch ``Batch.pack`` packs: ``"layout"`` for a
    batch of layout values (a keyed root's release), else its type."""
    extend = Batch._extend

    def recording(self, batch):
        kinds.append("layout" if type(batch) is Batch and batch.rows is None else type(batch))
        extend(self, batch)

    with mock.patch.object(Batch, "_extend", recording):
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
    assert "layout" in kinds and list not in kinds  # every batch was rows
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


def test_a_float_chunk_names_its_conversion_to_chains():
    """Not one row is swept as arrays when the times are floats: the run
    goes again on per-key chains and says why, as the
    ``keyed.rerun_on_chains`` resolution, in ``explain()`` too."""
    rows = [{**row, "Time": row["Time"] + 0.5} for row in scale_rows(3000)]
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES["scale_sliding"]
    )
    engine = Engine(context=SERIAL)
    engine.run(query, {"logs": rows}, validate=False)
    stats = engine.last_stats
    assert stats.array_swept_rows == 0
    found = stats.resolutions[keyed.RERUN_ON_CHAINS]
    assert found["count"] == 1 and "a time is not an int" in found["reason"]
    assert stats.decoded_rows == len(rows)  # by the re-run alone
    assert f"resolved this run: {keyed.RERUN_ON_CHAINS} x 1" in explain(query, stats=stats)


def test_events_fed_to_a_keyed_count_are_swept_as_arrays():
    """A keyed count fed events, here by a ``where`` before its
    GroupApply, sweeps them as arrays as it sweeps a source's rows (it
    used to take a per-row loop for every row), and releases what the
    chains release, call for call."""
    rows = scale_rows(3000)
    query = (
        Query.source("logs", ("Time", "UserId", "Clicks"))
        .where(lambda p: p["Clicks"] >= 0)
        .group_apply("UserId", SHAPES["scale_hopping"])
    )
    engine = Engine(context=SERIAL)
    out = engine.run(query, {"logs": rows}, validate=False)
    stats = engine.last_stats
    assert stats.array_swept_rows == stats.decoded_rows == len(rows)
    assert keyed.RERUN_ON_CHAINS not in stats.resolutions
    with unfused_reference():
        assert ordered(out) == ordered(run(query, rows))
    calls = drive_in_batches(query, rows, chunk=200, wave=64, as_rows=True)
    with unfused_reference():
        assert calls == drive_in_batches(query, rows, chunk=200, wave=64, as_rows=True)


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
    assert "layout" not in kinds
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
    assert "layout" in kinds
    assert sum(map(len, keyed_out)) > 300
    assert keyed_out == chained


# -- the gate: no Event or payload built per input row --------------------------


@pytest.mark.parametrize("shape", ["scale_sliding", "scale_hopping"])
def test_no_event_built_per_input_row(shape):
    """A keyed sweep fed straight from a source of rows reads their
    columns: ingest builds no ``Event`` and decodes no row into a payload
    dict, and a keyed root's outputs build none on their way into the
    result. At the benchmark's geometry (512 users over three days) that
    was 2.41 and 2.25 events per row while the sweep emitted events, and
    one event and one payload dict per row while ingest decoded every
    row."""
    rows = scale_rows(20_000, users=512, span=hours(72))
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES[shape]
    )
    out, stats, built, decoded = counted_ingest(
        lambda engine: engine.run(query, {"logs": rows})
    )
    assert len(out) > len(rows) / 5
    assert built == 0
    assert decoded == [] and stats.decoded_rows == 0
    # and every row was swept as arrays: no per-row loop either
    assert stats.array_swept_rows == len(rows)
    assert keyed.RERUN_ON_CHAINS not in stats.resolutions


def test_a_keyed_root_releases_columns_without_a_row_per_segment():
    """Fed a source's rows, ``scale_sliding``'s keyed root hands its
    segments from the sweep to the result as int64 columns, one
    ``Batch`` a release (``KeyedAggregate.batch``), where each output
    segment was a tuple, listed, sorted and transposed; no ``Event`` is
    built for one either."""
    rows = scale_rows(20_000, users=512, span=hours(72))
    query = Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        "UserId", SHAPES["scale_sliding"]
    )
    calls = [0]
    batch = keyed.KeyedAggregate.batch

    def counted(self, segments):
        calls[0] += 1
        return batch(self, segments)

    with mock.patch.object(keyed.KeyedAggregate, "batch", counted):
        out, _, built, _ = counted_ingest(lambda engine: engine.run(query, {"logs": rows}))
    assert len(out) > len(rows) / 5
    assert calls[0] > 1 and built == 0
    assert out == Engine(context=SERIAL).run(query, {"logs": point_events(rows)})


@pytest.mark.parametrize("name", ["bot-elimination", "joins"])
def test_every_row_is_decoded_where_events_are_read(name):
    """Bot elimination reads its source as events (a hop before its
    GroupApply, an anti-semi-join), and two sources merge as events:
    every row is decoded, once."""
    sources = top_sources(name, wave_rows(2500))
    _, stats, _, decoded = counted_ingest(
        lambda engine: engine.run(TOP_SHAPES[name][0](), sources)
    )
    assert sum(decoded) == stats.decoded_rows == sum(map(len, sources.values())) == 2500



def test_a_user_src_column_is_read_off_the_rows():
    """Only a tagged multi-input source's decode drops ``_src``: a keyed
    sweep on a user's ``_src`` column over plain rows reads the rows as
    they are, and gives what the rows decoded to events give."""
    rows = [{"Time": t, "_src": t % 3, "v": t} for t in range(300)]
    query = Query.source("logs").group_apply("_src", lambda g: g.window(5).sum("v", into="s"))
    out, stats, built, decoded = counted_ingest(lambda engine: engine.run(query, {"logs": rows}))
    assert decoded == [] and stats.decoded_rows == 0
    assert normalize(out) == normalize(Engine().run(query, {"logs": point_events(rows)}))


def counted_ingest(run):
    """``(output, last_stats, events built, chunks decoded)`` of
    ``run(engine)``: every ``Event`` built is counted, and each chunk of
    rows the codec decodes into events listed by its size."""
    built = [0]
    decoded = []
    init, decode = Event.__init__, event._decode

    def counting_init(self, le, re, payload):
        built[0] += 1
        init(self, le, re, payload)

    def counting_decode(les, rows, *args):
        decoded.append(len(rows))
        return decode(les, rows, *args)

    engine = Engine(context=SERIAL)
    with mock.patch.object(Event, "__init__", counting_init), \
            mock.patch.object(event, "_decode", counting_decode):
        out = run(engine)
    return out, engine.last_stats, built[0], decoded


def test_kez_per_keyword_count_decodes_no_row_in_timr():
    """KE-z's per-(ad, keyword) count, ``shift(1)`` then a hop of the
    horizon, run as one TiMR fragment: each reducer hands its engine
    the partition's rows, and the keyed sweep computes the lifetimes
    over their columns, so no row is decoded to an event (each reducer
    decoded all of its rows while it handed its engine events), every
    row is swept as arrays, and the output is the one the same rows
    decoded to events give."""
    rng = random.Random(5)
    times = sorted(rng.randrange(hours(72)) for _ in range(6000))
    rows = [
        {"Time": t, "AdId": rng.randrange(7), "Keyword": f"k{rng.randrange(40)}",
         "y": rng.randrange(2)}
        for t in times
    ]
    query = per_keyword_count_query(
        Query.source("train", ("AdId", "Keyword", "y")), BTConfig(), hours(24)
    )
    fs = DistributedFileSystem()
    fs.write("train", [dict(row) for row in rows], num_partitions=2)
    engines = []
    run_engine = Engine.run

    def recording(self, *args, **kwargs):
        out = run_engine(self, *args, **kwargs)
        engines.append(self.last_stats)
        return out

    decoded = []
    decode = event._decode

    def counting_decode(les, rows, *args):
        decoded.append(len(rows))
        return decode(les, rows, *args)

    with mock.patch.object(Engine, "run", recording), \
            mock.patch.object(event, "_decode", counting_decode):
        result = TiMR(Cluster(fs=fs)).run(query, job_name="kez", num_partitions=3)
    assert len(result.fragments) == 1 and len(engines) == 3
    assert sum(stats.input_events for stats in engines) == len(rows)
    assert [stats.decoded_rows for stats in engines] == [0, 0, 0]
    assert sum(stats.array_swept_rows for stats in engines) == len(rows)
    assert not any(keyed.RERUN_ON_CHAINS in stats.resolutions for stats in engines)
    assert decoded == []  # nothing on the way decodes a row either
    want = Engine().run(query, {"train": event.point_events(rows)})
    assert want and normalize(event.point_events(result.output_rows())) == normalize(want)
