"""The fragment boundary ≡ the row-at-a-time code it replaced.

Between two TiMR stages a row is decoded, run through the folded
stateless kernels, tagged, routed, and decoded again into an ``Event``
(docs/EXECUTION.md, "The fragment boundary"). The reference in this file
is the code that did this one row and one binding at a time — the row
transform, its composition across stacked folded fragments, the union
materialization, the reducer's split by ``_src`` and ``rows_to_events``,
and the map phase's routing loop — kept verbatim. Everything observable
must be equal: the bytes of the ``.in`` dataset, every event a reducer
hands its engine (lifetime, payload, *column order*), the stage output,
the quarantine records and the exception types.
"""

import contextlib
import copy
import decimal
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bt.queries import (
    UNIFIED_COLUMNS,
    bot_elimination_query,
    feature_selection_query,
    labeled_activity_query,
    training_data_query,
)
from repro.bt.schema import BTConfig
from repro.mapreduce import (
    Cluster,
    CostModel,
    DistributedFileSystem,
    MapReduceStage,
    StageExecutionError,
    persist,
)
from repro.mapreduce import cluster as cluster_module
from repro.mapreduce.faults import MAP
from repro.mapreduce.fs import DistributedFile
from repro.mapreduce.job import key_by_columns, stable_hash
from repro.runtime import RunContext
from repro.temporal import Engine, Query
from repro.temporal.event import Event, events_to_rows
from repro.temporal.plan import (
    AlterLifetimeNode,
    ProjectNode,
    SourceNode,
    WhereNode,
)
from repro.temporal.time import TICK, days, validate_interval
from repro.timr import SRC_COLUMN, TiMR, make_fragments, make_reducer
from repro.timr import compile as timr_compile
from repro.timr import runner as timr_runner
from repro.timr.compile import InputBinding, _add_extents, fold_stateless_fragments

# -- the reference: the parent's boundary, verbatim ---------------------------

_WHERE, _PROJECT, _LIFETIME = range(3)


def ref_row_transform(plan):
    chain = []
    node = plan
    while not isinstance(node, SourceNode):
        if not isinstance(node, (WhereNode, ProjectNode, AlterLifetimeNode)):
            return None
        chain.append(node)
        node = node.inputs[0]
    steps = []
    for n in reversed(chain):
        op = n.make_operator()
        if isinstance(n, WhereNode):
            steps.append((_WHERE, op.predicate, None))
        elif isinstance(n, ProjectNode):
            steps.append((_PROJECT, op.fn, None))
        else:
            steps.append((_LIFETIME, op.le_fn, op.re_fn))

    def transform(row: dict) -> List[dict]:
        le = row["Time"]
        re = row.get("_re", le + TICK)
        validate_interval(le, re)
        payload = {k: v for k, v in row.items() if k != "Time" and k != "_re"}
        for kind, f, g in steps:
            if kind == _WHERE:
                if not f(payload):
                    return []
            elif kind == _PROJECT:
                payload = f(payload)
            else:
                le, re = f(le, re), g(le, re)
                if re <= le:
                    return []
        out = dict(payload)
        out["Time"] = le
        out["_re"] = re
        return [out]

    return transform


def ref_fold(fragments):
    consumer_count: Dict[str, int] = {}
    for f in fragments:
        for name in f.input_names:
            consumer_count[name] = consumer_count.get(name, 0) + 1

    folded: Dict[str, tuple] = {}
    kept = []
    for f in fragments:
        transform = None
        if (
            not f.is_payload_partitioned
            and len(f.input_names) == 1
            and consumer_count.get(f.output_name, 0) == 1
        ):
            transform = ref_row_transform(f.root)
        if transform is not None:
            folded[f.output_name] = (f.input_names[0], transform, f.extent)
        else:
            kept.append(f)

    def resolve(name: str):
        transforms = []
        extent = (0, 0)
        while name in folded:
            src, tr, fext = folded[name]
            transforms.append(tr)
            extent = _add_extents(extent, fext)
            name = src
        if not transforms:
            return name, None, (0, 0)
        transforms.reverse()

        def composed(row: dict) -> List[dict]:
            rows = [row]
            for tr in transforms:
                nxt: List[dict] = []
                for r in rows:
                    nxt.extend(tr(r))
                if not nxt:
                    return []
                rows = nxt
            return rows

        return name, composed, extent

    plans: Dict[str, tuple] = {}
    for f in kept:
        bindings = []
        extent = f.extent
        for logical in f.input_names:
            physical, transform, folded_extent = resolve(logical)
            bindings.append(InputBinding(logical, physical, transform))
            if transform is not None:
                extent = _add_extents(extent, folded_extent)
        plans[f.output_name] = (bindings, extent)
    return kept, plans


def ref_materialize_union(fs, fragment, bindings) -> None:
    combined: List[dict] = []
    for binding in bindings:
        f = fs.read(binding.physical)
        for part in f.partitions:
            for row in part:
                if binding.transform is not None:
                    mapped = binding.transform(row)
                else:
                    mapped = (row,)
                for out in mapped:
                    tagged = dict(out)
                    tagged[SRC_COLUMN] = binding.logical
                    combined.append(tagged)
    fs.write(f"{fragment.output_name}.in", combined)


def ref_rows_to_events(rows, time_column="Time", re_column="_re") -> list:
    events = []
    for row in rows:
        t = row[time_column]
        re = row.get(re_column, t + TICK)
        payload = {k: v for k, v in row.items() if k not in (time_column, re_column)}
        events.append(Event(t, re, payload))
    return events


def ref_reducer(fragment, seen: list):
    """The parent's generated reducer (no span layout); every call's
    per-source event lists are appended to ``seen``."""
    multi_input = len(fragment.input_names) > 1
    input_names = list(fragment.input_names)

    def reducer(partition_index: int, rows: List[dict]) -> List[dict]:
        if multi_input:
            split: Dict[str, List[dict]] = {name: [] for name in input_names}
            for row in rows:
                row = dict(row)
                src = row.pop(SRC_COLUMN)
                split[src].append(row)
            sources = {name: ref_rows_to_events(split[name]) for name in input_names}
        else:
            sources = {input_names[0]: ref_rows_to_events(rows)}
        seen.append(sources)
        events = Engine(context=RunContext()).run(fragment.root, sources, validate=False)
        return events_to_rows(events)

    return reducer


def ref_map_partition_rows(cluster, stage, pi, rows):
    routed = []
    poisoned = []
    for source_row in rows:
        try:
            if stage.map_fn is not None:
                mapped = stage.map_fn(source_row)
            else:
                mapped = (source_row,)
            row_routes = []
            for row in mapped:
                for idx in [stable_hash(stage.key_fn(row)) % stage.num_partitions]:
                    if not 0 <= idx < stage.num_partitions:
                        raise IndexError(
                            f"stage {stage.name!r} routed row to partition "
                            f"{idx} of {stage.num_partitions}"
                        )
                    row_routes.append((idx, row))
        except Exception as exc:
            if not cluster.quarantine:
                raise
            poisoned.append(cluster._quarantine_record(stage.name, pi, MAP, source_row, exc))
            continue
        routed.extend(row_routes)
    return routed, poisoned


def ref_run(fs, plan, num_partitions, seen, **cluster_args):
    """The parent's ``TiMR._run_job`` loop over the reference pieces:
    returns the ``.in`` datasets by name and the job's output."""
    cluster = Cluster(fs=fs, **cluster_args)
    unions = {}
    output = None
    kept, plans = ref_fold(make_fragments(plan, "j"))
    for fragment in kept:
        bindings, _ = plans[fragment.output_name]
        multi = len(bindings) > 1
        stage = MapReduceStage(
            name=f"timr.{fragment.output_name}",
            key_fn=key_by_columns(fragment.key),
            reducer=ref_reducer(fragment, seen),
            num_partitions=num_partitions,
            map_fn=None if multi else bindings[0].transform,
        )
        input_name = bindings[0].physical
        if multi:
            ref_materialize_union(fs, fragment, bindings)
            input_name = f"{fragment.output_name}.in"
            unions[input_name] = fs.read(input_name)
        output = cluster.run_stage(
            stage, input_name, fragment.output_name, quarantine_name="j.quarantine"
        )
    return unions, output


# -- observing the code under test --------------------------------------------


@contextlib.contextmanager
def observed(unions: dict, seen: list):
    """Record every ``.in`` dataset as materialized (it is deleted once
    its stage is done) and the sources every reducer hands its engine."""
    materialize, run = TiMR._materialize_union, Engine.run

    def recording_union(self, fragment, bindings):
        materialize(self, fragment, bindings)
        name = f"{fragment.output_name}.in"
        unions[name] = self.cluster.fs.read(name)

    def recording_run(self, query, sources, **kwargs):
        seen.append(sources)
        return run(self, query, sources, **kwargs)

    with mock.patch.object(TiMR, "_materialize_union", recording_union):
        with mock.patch.object(Engine, "run", recording_run):
            yield


def exact(dfile: DistributedFile):
    """Rows per partition with their column order spelled out."""
    return [[list(row.items()) for row in part] for part in dfile.partitions]


def exact_events(calls):
    return [
        {
            name: [(e.le, e.re, list(e.payload.items())) for e in events]
            for name, events in sources.items()
        }
        for sources in calls
    ]


def filesystems(datasets):
    """Two file systems holding equal but separate copies of ``datasets``."""
    pair = []
    for _ in range(2):
        fs = DistributedFileSystem()
        for name, rows in datasets.items():
            fs.write(name, copy.deepcopy(rows), num_partitions=2)
        pair.append(fs)
    return pair


def assert_boundary_equals_reference(plan, datasets, num_partitions=3):
    fs, ref_fs = filesystems(datasets)
    unions, seen, ref_seen = {}, [], []
    with observed(unions, seen):
        result = TiMR(Cluster(fs=fs)).run(
            plan, job_name="j", num_partitions=num_partitions, validate=False
        )
    ref_unions, ref_output = ref_run(ref_fs, plan, num_partitions, ref_seen)

    assert list(unions) == list(ref_unions)
    for name, union in unions.items():
        assert persist.dataset_sha256(union) == persist.dataset_sha256(ref_unions[name])
        assert exact(union) == exact(ref_unions[name])
        assert not fs.exists(name)  # a temporary of its stage
    assert exact_events(seen) == exact_events(ref_seen)
    assert persist.dataset_sha256(result.output) == persist.dataset_sha256(ref_output)
    assert exact(result.output) == exact(ref_output)
    # neither side wrote to its input
    for name, rows in datasets.items():
        assert exact(fs.read(name)) == exact(ref_fs.read(name))
        assert fs.read(name).all_rows() == rows[0::2] + rows[1::2]
    return unions, seen, result


# -- generated fragments -------------------------------------------------------

#: one stateless operator each; a chain of them is one folded fragment
STEPS = {
    "where": lambda q: q.where(lambda p: p.get("v", 0) % 2 == 0),
    "where-none": lambda q: q.where(lambda p: False),
    "project": lambda q: q.project(lambda p: {"w": p.get("v", 0) + 1, **p}),
    "project-narrow": lambda q: q.project(lambda p: {"k": p["k"], "u": p.get("w", -1)}),
    "window": lambda q: q.window(5),
    # [le, re - 3): empty for every lifetime of 3 ticks or fewer
    "shift-to-empty": lambda q: q.shift(0, -3),
    "shift": lambda q: q.shift(2),
}

chains = st.lists(st.sampled_from(sorted(STEPS)), min_size=1, max_size=3)

#: a binding: its physical dataset and the folded fragments stacked on it
#: (none: a plain binding, the rows are tagged as they are)
bindings = st.tuples(st.sampled_from(["a", "b"]), st.lists(chains, max_size=2))


@st.composite
def datasets_(draw):
    """Rows for ``a`` and ``b``: tied ``Time``s, with and without
    ``_re``, ``Time`` first or last among the columns."""
    out = {}
    for name in ("a", "b"):
        rows = []
        for _ in range(draw(st.integers(min_value=0, max_value=25))):
            t = draw(st.integers(min_value=0, max_value=12))
            columns = {"k": draw(st.sampled_from(["x", "y", 3])), "v": draw(st.integers(0, 5))}
            if draw(st.booleans()):
                row = {"Time": t, **columns}
            else:
                row = {**columns, "Time": t}
            if draw(st.booleans()):
                row["_re"] = t + draw(st.integers(min_value=1, max_value=6))
            rows.append(row)
        out[name] = rows
    return out


def build(branches, combine):
    queries = []
    for physical, fragments in branches:
        q = Query.source(physical)
        for i, chain in enumerate(fragments):
            if i:
                q = q.exchange()  # a key-less boundary: two stacked fragments
            for step in chain:
                q = STEPS[step](q)
        queries.append(q.exchange("k"))
    q = queries[0]
    for other in queries[1:]:
        q = q.union(other) if combine == "union" else q.temporal_join(other, on="k")
    return q.group_apply("k", lambda g: g.window(4).count(into="n")).to_plan()


@settings(max_examples=200, deadline=None)
@given(
    branches=st.lists(bindings, min_size=1, max_size=4),
    combine=st.sampled_from(["union", "join"]),
    datasets=datasets_(),
)
def test_generated_fragments_cross_the_boundary_as_before(branches, combine, datasets):
    assert_boundary_equals_reference(build(branches, combine), datasets)


def test_the_generator_reaches_every_shape():
    """One hand-picked fragment with everything at once, and a check
    that it is what it is meant to be: four bindings over two physical
    datasets, plain and folded mixed, one of them two fragments deep."""
    branches = [
        ("a", [["where", "project"]]),
        ("a", []),
        ("b", [["project"], ["shift-to-empty", "where"]]),
        ("a", [["shift-to-empty"]]),
    ]
    plan = build(branches, "union")
    kept, plans = fold_stateless_fragments(make_fragments(plan, "j"))
    (top,) = kept
    shape = [(b.physical, b.transform is not None) for b in plans[top.output_name][0]]
    assert shape == [("a", True), ("a", False), ("b", True), ("a", True)]
    rows = [
        {"Time": t, "k": "xy"[t % 2], "v": t % 5, **({"_re": t + 1 + t % 6} if t % 3 else {})}
        for t in (0, 1, 1, 2, 4, 4, 4, 7, 9, 9, 12)
    ]
    unions, seen, result = assert_boundary_equals_reference(
        plan, {"a": rows, "b": [dict(r) for r in reversed(rows)]}
    )
    (union,) = unions.values()
    tags = [row[SRC_COLUMN] for row in union.all_rows()]
    assert tags == sorted(tags, key=top.input_names.index)  # binding-major
    assert set(tags) == set(top.input_names)  # every binding survives somewhere
    assert result.output.num_rows


def test_a_reserved_column_from_a_project_stops_at_a_folded_boundary():
    """A Project may name a payload column ``Time``; writing the row
    overwrote it with the LE and reading it back dropped it, so the
    next folded fragment never saw it. Still so without the row."""
    q = (
        Query.source("a")
        .project(lambda p: {"Time": "mine", "_re": "too", **p})
        .exchange()
        .project(lambda p: {"kept": sorted(p), **p})
        .exchange("k")
        .union(Query.source("b").exchange("k"))
        .group_apply("k", lambda g: g.count(into="n"))
    )
    rows = [{"Time": t, "k": "x", "v": t} for t in range(4)]
    unions, _, _ = assert_boundary_equals_reference(q.to_plan(), {"a": rows, "b": rows})
    (union,) = unions.values()
    folded = [r for r in union.all_rows() if r[SRC_COLUMN] != "b"]
    assert folded and all(r["kept"] == ["k", "v"] for r in folded)


def test_single_input_stage_maps_through_the_same_kernel():
    """One binding: no union, the kernel runs as the stage's ``map_fn``."""
    plan = build([("a", [["where", "window"], ["project"]])], "union")
    rows = [{"k": "x", "v": t % 4, "Time": t // 2} for t in range(20)]
    unions, seen, result = assert_boundary_equals_reference(plan, {"a": rows, "b": []})
    assert not unions and result.output.num_rows


# -- the reducer never writes to its input ------------------------------------


def join_fragment():
    a = Query.source("a").exchange("k")
    b = Query.source("b").exchange("k")
    return make_fragments(a.temporal_join(b.window(100), on="k").to_plan(), "j")[-1]


def count_fragment():
    q = Query.source("s").exchange("k").group_apply("k", lambda g: g.count(into="n"))
    return make_fragments(q.to_plan(), "j")[-1]


@pytest.mark.parametrize("fragment", [join_fragment, count_fragment], ids=["multi", "single"])
def test_reducer_rerun_on_the_same_partition(fragment):
    """Section III-C.1: M-R re-runs a failed reducer on the partition it
    still holds. Same rows in, same rows out — and the rows unchanged."""
    fragment = fragment()
    tags = fragment.input_names
    partition = [
        {"Time": t // 2, "k": t % 3, "v": [t], **({"_re": t + 9} if t % 4 else {})}
        for t in range(12)
    ]
    if len(tags) > 1:
        for i, row in enumerate(partition):
            row[SRC_COLUMN] = tags[i % 2]
    snapshot = copy.deepcopy(partition)
    reducer = make_reducer(fragment)
    first = reducer(0, partition)
    assert partition == snapshot
    assert [list(row) for row in partition] == [list(row) for row in snapshot]
    assert first and reducer(0, partition) == first
    assert partition == snapshot


# -- the route memo ------------------------------------------------------------


class Opaque:
    """Hashable, equal to nothing else, and not something marshal writes."""

    def __repr__(self):
        return "Opaque()"


ROUTE_KEYS = [
    1, 1.0, True, "1", 1, True, 1.0,
    (1, "a"), (1.0, "a"), (True, "a"), (1, "a"),
    (1,), (1.0,), ((1,),), ((1.0,),),
    0.0, -0.0, 0, False, None, "None",
    [1, 2], [1.0, 2], {"a": 1}, {"a": True},
    decimal.Decimal("1"), decimal.Decimal("1.0"), Opaque(), Opaque(),
]  # fmt: skip


@pytest.mark.parametrize("remembered", [None, 3], ids=["memo", "memo-of-3"])
@pytest.mark.parametrize("order", ["as-listed", "reversed"])
def test_routes_are_type_exact(order, remembered):
    """``1``, ``1.0`` and ``True`` are one dict key and three reprs;
    each row goes where ``stable_hash`` of *its* key says, whichever of
    them the partition showed first. Unhashable and unmarshallable keys
    route too, and so do the keys past the memo's size."""
    keys = ROUTE_KEYS if order == "as-listed" else ROUTE_KEYS[::-1]
    n = 1009
    rows = [{"Time": i, "key": key} for i, key in enumerate(keys * 3)]
    stage = MapReduceStage("s", lambda row: row["key"], lambda i, rows: rows, num_partitions=n)
    with contextlib.ExitStack() as stack:
        if remembered is not None:
            stack.enter_context(mock.patch.object(cluster_module, "_ROUTE_MEMO_KEYS", remembered))
        routed, poisoned = Cluster()._map_partition_rows(stage, 0, rows)
    assert not poisoned
    assert [row for _, row in routed] == rows
    assert [idx for idx, _ in routed] == [stable_hash(row["key"]) % n for row in rows]
    # and these really are different places
    assert len({stable_hash(k) % n for k in (1, 1.0, True, "1")}) == 4
    assert stable_hash((1, "a")) % n != stable_hash((1.0, "a")) % n
    assert stable_hash(0.0) % n != stable_hash(-0.0) % n


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 1.0, True, "1", 2, "x", None, 0.0, -0.0]),
            st.sampled_from(["a", 1, 1.0]),
        ),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=7),
)
def test_map_phase_equals_reference(pairs, n):
    rows = [{"Time": i, "k": k, "j": j} for i, (k, j) in enumerate(pairs)]
    stage = MapReduceStage("s", key_by_columns(("k", "j")), lambda i, r: r, num_partitions=n)
    cluster = Cluster()
    assert cluster._map_partition_rows(stage, 0, rows) == ref_map_partition_rows(
        cluster, stage, 0, rows
    )


# -- rows that cannot cross ----------------------------------------------------


def raising_key(row):
    if row.get("v") == "bad-key":
        raise RuntimeError(f"no key for {row['v']}")
    return (row["k"],)


BAD_ROWS = {
    "key_fn raises": {"Time": 3, "k": "x", "v": "bad-key", SRC_COLUMN: "a"},
    "no Time": {"k": "x", "v": 1, SRC_COLUMN: "a"},
    "inverted": {"Time": 4, "_re": 4, "k": "y", "v": 2, SRC_COLUMN: "b"},
}


def poisoned_partition(bad):
    rows = [
        {"Time": t, "k": "xy"[t % 2], "v": t, SRC_COLUMN: "ab"[t % 2], "_re": t + 50}
        for t in range(8)
    ]
    rows.insert(5, dict(BAD_ROWS[bad]))
    return rows


def run_poisoned(bad, reducer, quarantine):
    fs = DistributedFileSystem()
    fs.write("in", poisoned_partition(bad), require_time_column=False)
    stage = MapReduceStage("timr.j.out", raising_key, reducer, num_partitions=2)
    cluster = Cluster(fs=fs, quarantine=quarantine)
    out = cluster.run_stage(stage, "in", "out", quarantine_name="q")
    return exact(out), fs.read("q").all_rows() if fs.exists("q") else []


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_bad_rows_are_quarantined_as_before(bad):
    fragment = join_fragment()
    out, records = run_poisoned(bad, make_reducer(fragment), quarantine=True)
    ref_out, ref_records = run_poisoned(bad, ref_reducer(fragment, []), quarantine=True)
    assert out == ref_out
    assert records == ref_records and len(records) == 1
    assert records[0]["_row"] == BAD_ROWS[bad]


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_bad_rows_raise_as_before(bad):
    fragment = join_fragment()
    raised = []
    for reducer in (make_reducer(fragment), ref_reducer(fragment, [])):
        with pytest.raises(Exception) as info:
            run_poisoned(bad, reducer, quarantine=False)
        exc = info.value
        raised.append((type(exc), type(exc.__cause__), str(exc.__cause__ or exc)))
    assert raised[0] == raised[1]
    expected = {
        "key_fn raises": RuntimeError,
        "no Time": KeyError,
        "inverted": StageExecutionError,
    }
    assert raised[0][0] is expected[bad]


@pytest.mark.parametrize(
    "bad, error",
    [({"k": "x", "v": 2}, KeyError), ({"Time": 4, "_re": 4, "k": "x", "v": 2}, ValueError)],
    ids=["no Time", "inverted"],
)
def test_bad_rows_in_a_folded_dataset_fail_the_union_as_before(bad, error):
    plan = build([("a", [["where"]]), ("b", [])], "union")
    rows = [{"Time": t, "k": "x", "v": 2 * t} for t in range(5)]
    messages = []
    for run in ("new", "reference"):
        fs = DistributedFileSystem()
        fs.write("a", rows[:3] + [dict(bad)] + rows[3:], require_time_column=False)
        fs.write("b", rows)
        with pytest.raises(error) as info:
            if run == "new":
                TiMR(Cluster(fs=fs)).run(plan, job_name="j", validate=False)
            else:
                ref_run(fs, plan, 2, [])
        messages.append(str(info.value))
        assert not fs.exists("j.out")
    assert messages[0] == messages[1]


# -- the gate: scans and copies, as counts ------------------------------------


def test_one_scan_per_dataset_and_two_copies_per_row(small_dataset):
    """Over the union stages of the BT chain: ``_materialize_union``
    reads each physical dataset once however many bindings share it, and
    from there to the reducer's events the boundary builds at most one
    dict per scanned row (the decode all bindings share) and two per
    surviving row (the tagged row, the event payload). Counted at the
    ``dict(...)`` calls of ``timr/runner.py`` and ``timr/compile.py``,
    which is where the boundary makes its copies."""
    cfg = BTConfig(min_support=2, z_threshold=1.0)
    logs = Query.source("logs", UNIFIED_COLUMNS)
    clean = Query.source("clean", UNIFIED_COLUMNS)
    fs = DistributedFileSystem()
    fs.write("logs", small_dataset.rows)
    timr = TiMR(Cluster(fs=fs, cost_model=CostModel(num_machines=8)))
    fs.write("clean", timr.run(bot_elimination_query(logs, cfg), job_name="clean").output_rows())

    copies = [0]
    unions = []  # per union stage: (bindings, datasets read, rows scanned, rows written)
    materialize, read = TiMR._materialize_union, fs.read

    def counting_dict(*args, **kwargs):
        copies[0] += 1
        return dict(*args, **kwargs)

    def counting_union(self, fragment, bindings):
        reads = []
        fs.read = lambda name: reads.append(name) or read(name)
        try:
            materialize(self, fragment, bindings)
        finally:
            fs.read = read
        assert sorted(reads) == sorted({b.physical for b in bindings})
        scanned = sum(read(name).num_rows for name in reads)
        written = read(f"{fragment.output_name}.in").num_rows
        unions.append((len(bindings), len(reads), scanned, written))

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(TiMR, "_materialize_union", counting_union))
        for module in (timr_runner, timr_compile):
            stack.enter_context(mock.patch.object(module, "dict", counting_dict, create=True))
        for name, plan in [
            ("kez", feature_selection_query(clean, cfg, days(3))),
            ("act", labeled_activity_query(clean, cfg)),
            ("train", training_data_query(clean, cfg)),
        ]:
            copies[0], first = 0, len(unions)
            result = timr.run(plan, job_name=name, num_partitions=4)
            assert result.output.num_rows
            assert all(stage.needs_input_union for stage in result.stages)
            ran = len(result.stages) - result.reused_stages
            assert len(unions) - first == ran
            if not ran:  # train is kez.frag0 again: served, so no scan and no copy
                assert name == "train" and copies[0] == 0
                continue
            scanned = sum(u[2] for u in unions[first:])
            surviving = sum(u[3] for u in unions[first:])
            assert surviving and copies[0] <= 2 * surviving + scanned, (name, unions[first:])
    # the chain does share its inputs: more bindings than datasets read
    assert sum(u[0] for u in unions) > sum(u[1] for u in unions)
