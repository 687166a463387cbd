"""Every GroupApply shape against the whole-plan oracle.

``relation.ref_plan`` evaluates a plan node by node over whole lists: no
watermarks, waves, chains or wake times, and nothing from
``repro.runtime``. For every ``FUSION_SHAPES`` × ``PREFIXES`` cell of
``test_wake_scheduling.py`` — the keyed sweep, flat chains, nested
GroupApply and deferred rewrites alike — three entry points must give
the oracle's temporal relation (compared through ``normalize``):

* ``Engine.run`` over the pushed rows;
* ``StreamingEngine``, one ``push`` / ``advance_to`` at a time with the
  history's slack, the releases of every call and the flush together,
  for the cells that can stream;
* ``TiMR.run`` of the query as one fragment.

The top-level cells of ``test_top_level.py`` (``TOP_SHAPES``) take
``Engine.run`` and the per-push comparison too. Degenerate sub-plans
(the identity, a constant-false ``where``, an empty group input, every
row at one ``Time``) and joins, at the top level and per key, take the
same comparison, and so do keyed counts and int sums over long row
histories with hostile values (the keyed array form, and the re-run on
per-key chains an unfit value sets off). Histories are hypothesis-generated:
ties, slack 0 and 4, CTIs, and sometimes one hot key that takes most
rows. Tier-1 runs a light profile
(a couple of histories per cell, and for ``TiMR.run`` one fixed,
non-empty history: :func:`fixed_rows`); the ``oracle`` marker selects
the heavy one (``make test-oracle``).
"""

import ast
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import Cluster, DistributedFileSystem
from repro.runtime import dataflow
from repro.runtime.dataflow import Dataflow
from repro.temporal import MIN_TIME, Engine, Query, StreamingEngine, normalize, relation
from repro.temporal import engine as engine_module
from repro.temporal.event import rows_to_events
from repro.temporal.operators import AggSpec
from repro.temporal.plan import PlanNode
from repro.temporal.relation import ref_plan
from repro.timr import TiMR
from tests.runtime.test_row_ingest import SHIFT_CHAINS, chained
from tests.runtime.test_top_level import TOP_DEFERRED, TOP_SHAPES, top_sources
from tests.runtime.test_wake_scheduling import (
    DEFERRED,
    FUSION_SHAPES,
    PREFIXES,
    build,
    output_digest,
    scripts,
    to_logs,
)

USERS = ["u1", "u2", "u3", "u4"]


@st.composite
def histories(draw):
    """``(slack, script)``: :func:`scripts`' pushes with ties, late by at
    most ``slack``, and CTIs; with a hot key, most rows belong to one
    user."""
    slack = draw(st.sampled_from([0, 4]))
    script = draw(scripts(slack))
    if draw(st.booleans()):
        for op, row in script:
            if op == "push" and draw(st.integers(min_value=0, max_value=3)):
                row["UserId"] = "u1"
    return slack, script


def pushed(script):
    return [dict(row) for op, row in script if op == "push"]


def oracle(query, rows):
    return normalize(ref_plan(query.to_plan(), {"logs": rows_to_events(rows)}))


def engine_run(query, rows):
    return normalize(Engine().run(query, {"logs": rows}))


def stream(query, script, slack=0, feed=to_logs):
    engine = StreamingEngine(query, slack=slack)
    out = []
    for op, arg in script:
        if op == "push":
            routed = feed(dict(arg))
            if routed is not None:
                out.extend(engine.push(*routed))
        else:
            out.extend(engine.advance_to(arg))
    out.extend(engine.flush())
    return normalize(out)


def timr_run(query, rows):
    fs = DistributedFileSystem()
    fs.write("logs", rows, require_time_column=False)
    result = TiMR(Cluster(fs=fs)).run(query, job_name="oracle")
    assert len(result.fragments) == 1
    return normalize(rows_to_events(result.output_rows()))


def check_engine(prefix, subplan, data):
    _, script = data.draw(histories())
    query = build(prefix, subplan, FUSION_SHAPES)
    rows = pushed(script)
    assert engine_run(query, rows) == oracle(query, rows)


def check_stream(prefix, subplan, data):
    slack, script = data.draw(histories())
    query = build(prefix, subplan, FUSION_SHAPES)
    assert stream(query, script, slack) == oracle(query, pushed(script))


def check_timr(prefix, subplan, rows):
    query = build(prefix, subplan, FUSION_SHAPES)
    assert timr_run(query, rows) == oracle(query, rows)


def fixed_rows():
    """The light profile's one TiMR history. A TiMR run per draw is
    dear, and hypothesis draws the empty history first, so the tier-1
    TiMR cells run these 36 rows instead: LE ties, both streams, every
    user with ``u1`` hot, and gaps past every window. Every third row
    carries an ``_re`` one to five ticks on, for the rewrite chains;
    the other cells drop them."""
    rows, now = [], 0
    for i in range(36):
        now += (0, 1, 0, 2, 3, 13)[i % 6]
        row = {"Time": now, "StreamId": i % 2, "UserId": USERS[i % 4] if i % 3 else "u1",
               "V": i % 4}
        if i % 3 == 1:
            row["_re"] = now + 1 + i % 5
        rows.append(row)
    return rows


cells = pytest.mark.parametrize(
    "prefix, subplan",
    [(p, s) for s in sorted(FUSION_SHAPES) for p in sorted(PREFIXES)],
)
streamable = pytest.mark.parametrize(
    "prefix, subplan",
    [(p, s) for s in sorted(FUSION_SHAPES) if s not in DEFERRED for p in sorted(PREFIXES)],
)
light = settings(max_examples=2, deadline=None)
heavy = settings(max_examples=40, deadline=None)


# -- the light profile (tier-1) ------------------------------------------------


@cells
@light
@given(data=st.data())
def test_engine_run_equals_the_oracle(prefix, subplan, data):
    check_engine(prefix, subplan, data)


@streamable
@light
@given(data=st.data())
def test_streaming_per_push_equals_the_oracle(prefix, subplan, data):
    check_stream(prefix, subplan, data)


@cells
def test_timr_run_equals_the_oracle(prefix, subplan):
    rows = [{k: v for k, v in row.items() if k != "_re"} for row in fixed_rows()]
    check_timr(prefix, subplan, rows)


# -- the heavy profile (``make test-oracle``) ------------------------------------


@pytest.mark.oracle
@cells
@heavy
@given(data=st.data())
def test_engine_run_equals_the_oracle_heavy(prefix, subplan, data):
    check_engine(prefix, subplan, data)


@pytest.mark.oracle
@streamable
@heavy
@given(data=st.data())
def test_streaming_per_push_equals_the_oracle_heavy(prefix, subplan, data):
    check_stream(prefix, subplan, data)


@pytest.mark.oracle
@cells
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_timr_run_equals_the_oracle_heavy(prefix, subplan, data):
    check_timr(prefix, subplan, pushed(data.draw(histories())[1]))


# -- the top level ------------------------------------------------------------------
#
# ``TOP_SHAPES`` (``test_top_level.py``): sources, multicast, unions, joins
# of two named sources, roots after and at a GroupApply, a deferred
# rewrite and bot elimination, each history routed to its sources.


def check_top(name, data):
    slack, script = data.draw(histories())
    build_plan, feed = TOP_SHAPES[name]
    sources = top_sources(name, pushed(script))
    want = normalize(ref_plan(
        build_plan().to_plan(),
        {source: rows_to_events(rows) for source, rows in sources.items()},
    ))
    assert normalize(Engine().run(build_plan(), sources)) == want
    if name not in TOP_DEFERRED:
        assert stream(build_plan(), script, slack, feed) == want


top_cells = pytest.mark.parametrize("name", sorted(TOP_SHAPES))


@top_cells
@light
@given(data=st.data())
def test_top_level_equals_the_oracle(name, data):
    check_top(name, data)


@pytest.mark.oracle
@top_cells
@heavy
@given(data=st.data())
def test_top_level_equals_the_oracle_heavy(name, data):
    check_top(name, data)


# -- degenerate sub-plans --------------------------------------------------------

#: rows with ties and a hot key, and every one of them at one ``Time``
TIED = [
    {"Time": 7, "StreamId": i % 2, "UserId": USERS[i % 5 // 3], "V": i % 4}
    for i in range(12)
]
SPREAD = [
    {"Time": t // 2, "StreamId": t % 2, "UserId": USERS[t % 3], "V": t % 4}
    for t in range(30)
]

DEGENERATE = {
    "identity": (lambda g: g, SPREAD),
    "constant-false": (lambda g: g.where(lambda p: False), SPREAD),
    "empty-input-count": (lambda g: g.window(5).count(into="n"), []),
    "empty-input-nested": (FUSION_SHAPES["nested"], []),
    "tied-count": (FUSION_SHAPES["count"], TIED),
    "tied-count-window": (FUSION_SHAPES["count-window"], TIED),
    "tied-session": (FUSION_SHAPES["session"], TIED),
    "tied-nested": (FUSION_SHAPES["nested-session-union"], TIED),
    "tied-identity": (lambda g: g, TIED),
}


def degenerate(prefix, name):
    subplan, rows = DEGENERATE[name]
    source = Query.source("logs", ("StreamId", "UserId", "V"))
    return PREFIXES[prefix](source).group_apply("UserId", subplan), rows


degenerate_cells = pytest.mark.parametrize(
    "prefix, name", [(p, n) for n in DEGENERATE for p in sorted(PREFIXES)]
)


@degenerate_cells
@pytest.mark.parametrize("entry", ["engine", "stream", "timr"])
def test_degenerate_sub_plans_equal_the_oracle(prefix, name, entry):
    query, rows = degenerate(prefix, name)
    want = oracle(query, rows)
    if entry == "engine":
        got = engine_run(query, rows)
    elif entry == "stream":
        got = stream(query, [("push", row) for row in rows])
    else:
        got = timr_run(query, rows)
    assert got == want
    if name.startswith(("constant-false", "empty-input")):
        assert want == []


# -- joins ------------------------------------------------------------------------


def _logs():
    return Query.source("logs", ("StreamId", "UserId", "V"))


def _stream(n):
    return lambda p: p["StreamId"] == n


#: the binary operators ``ref_plan`` states with ``ref_temporal_join`` and
#: ``ref_anti_semi_join``, at the top level and inside a GroupApply
JOINS = {
    "temporal-join": lambda: _logs().where(_stream(1)).temporal_join(
        _logs().where(_stream(0)).window(6), on=("UserId",)
    ),
    "anti-semi-join": lambda: _logs().where(_stream(1)).anti_semi_join(
        _logs().where(_stream(0)).window(6), on=("UserId",)
    ),
    "join-per-key": lambda: _logs().group_apply(
        "UserId",
        lambda g: g.where(_stream(1)).temporal_join(
            g.where(_stream(0)).window(4), on=("UserId",)
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(JOINS))
@light
@given(data=st.data())
def test_joins_equal_the_oracle(name, data):
    slack, script = data.draw(histories())
    query = JOINS[name]()
    want = oracle(query, pushed(script))
    assert engine_run(query, pushed(script)) == want
    assert stream(query, script, slack) == want


# -- the UDOs ---------------------------------------------------------------------
#
# ``ref_plan`` evaluates the UDOs from their definitions
# (``ref_windowed_udo``, ``ref_snapshot_udo``, ``ref_scan``), not through
# the operator classes, so these cells check those classes.


def _window_payloads(payloads, boundary):
    return [{"n": len(payloads), "v": sum(p["V"] for p in payloads), "at": boundary}]


def _snapshot_payloads(payloads):
    return [{"n": len(payloads)}, {"v": sum(p["V"] for p in payloads)}]


def _running(state, payload, le):
    state["v"] = state.get("v", 0) + payload["V"]
    return [{"v": state["v"]}] if payload["StreamId"] else []


UDOS = {
    "windowed-udo": lambda q: q.udo_hopping(8, 4, _window_payloads),
    "snapshot-udo": lambda q: q.window(5).udo_snapshot(_snapshot_payloads),
    "scan-udo": lambda q: q.udo_scan(dict, _running),
}


def check_udo(name, per_key, data):
    slack, script = data.draw(histories())
    query = _logs()
    query = query.group_apply("UserId", UDOS[name]) if per_key else UDOS[name](query)
    want = oracle(query, pushed(script))
    assert engine_run(query, pushed(script)) == want
    assert stream(query, script, slack) == want


udo_cells = pytest.mark.parametrize(
    "name, per_key", [(n, k) for n in sorted(UDOS) for k in (False, True)]
)


@udo_cells
@light
@given(data=st.data())
def test_udos_equal_the_oracle(name, per_key, data):
    check_udo(name, per_key, data)


@pytest.mark.oracle
@udo_cells
@heavy
@given(data=st.data())
def test_udos_equal_the_oracle_heavy(name, per_key, data):
    check_udo(name, per_key, data)


def test_the_oracle_has_no_fallback_to_an_operator():
    """A node with no ``ref_*`` evaluator is an error, not its operator's
    ``apply``; nor does ``relation.py`` import any operator module."""

    class Unknown(PlanNode):
        op_name = "unknown"

    node = Unknown((Query.source("logs").to_plan(),))
    with pytest.raises(TypeError, match="no reference evaluator for Unknown"):
        ref_plan(node, {"logs": []})
    tree = ast.parse(inspect.getsource(relation))
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
    assert imported and not [m for m in imported if "operators" in m]


def test_the_oracle_imports_nothing_from_the_runtime():
    tree = ast.parse(inspect.getsource(relation))
    imported = [
        node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert imported and not [m for m in imported if "runtime" in m]


# -- a keyed GroupApply fed straight from rows -----------------------------------
#
# ``Engine.run`` over a source of rows sweeps a GroupApply in the array
# form off the rows themselves (docs/EXECUTION.md, "Rows"), and decodes
# them for per-key chains otherwise. These cells feed the per-key plans
# of a window or hop into an aggregate, and the shapes beside them, rows
# whose lifetimes are points or an ``_re`` of their own, and hold the
# result to the oracle over the decoded events.

KEYED_FROM_SOURCE = [
    "bare-count", "count", "exchange", "hopping-avg", "hopping-max",
    "hopping-min", "hopping-sum", "into-key-column", "multi-agg",
    "project-first", "shift-back", "shift-before-agg", "shift-forward",
    "sum", "topk", "where-before-agg", "where-first",
]


def check_rows(subplan, data):
    _, script = data.draw(histories())
    rows = pushed(script)
    for row in rows:
        if data.draw(st.booleans()):
            row["_re"] = row["Time"] + data.draw(st.integers(min_value=1, max_value=12))
    query = build("source", subplan, FUSION_SHAPES)
    assert engine_run(query, rows) == oracle(query, rows)


def test_the_keyed_from_source_shapes_are_the_expected_ones():
    """Of them, windows, hops and shifts into a count or plain sum run
    the array form; the rest, per-key chains."""
    def array_form(subplan):
        node = build("source", subplan, FUSION_SHAPES).to_plan()
        return dataflow._keyed_aggregate(node, dataflow._flat_plan(node)) is not None

    assert [s for s in sorted(FUSION_SHAPES) if array_form(s)] == [
        "bare-count", "count", "exchange", "hopping-sum", "into-key-column",
        "shift-back", "shift-before-agg", "shift-forward", "sum",
    ]


@pytest.mark.parametrize("subplan", KEYED_FROM_SOURCE)
@light
@given(data=st.data())
def test_keyed_sweep_over_rows_equals_the_oracle(subplan, data):
    check_rows(subplan, data)


@pytest.mark.oracle
@pytest.mark.parametrize("subplan", KEYED_FROM_SOURCE)
@heavy
@given(data=st.data())
def test_keyed_sweep_over_rows_equals_the_oracle_heavy(subplan, data):
    check_rows(subplan, data)


# -- keyed counts and int sums in the array form ---------------------------------
#
# Fed a source's rows, a keyed count or int sum is swept as int64 arrays,
# a wave at a time, and a chunk it cannot hold so (a float or a bool, an
# int past the bound, a float time) makes the run go again on per-key
# chains. Histories here are long enough for the batch driver's
# waves (over 4,096 rows), with negative, huge and late hostile values.

ARRAY_SHAPES = {
    "count": ("UserId", lambda g: g.window(40).count(into="n")),
    "sum": ("UserId", lambda g: g.window(40).sum("V", into="s")),
    "hop-count-sum": ("UserId", lambda g: g.hopping_window(60, 20).aggregate(
        AggSpec("count", "n"), AggSpec("sum", "s", "V"))),
    "shift-hop-sum": ("UserId", lambda g: g.shift(1).hopping_window(30, 30).sum("V", into="s")),
    "bare-count-sum": ("UserId", lambda g: g.aggregate(
        AggSpec("count", "n"), AggSpec("sum", "s", "V"))),
    "compound-keys": (("UserId", "StreamId"), lambda g: g.window(25).aggregate(
        AggSpec("sum", "s", "V"), AggSpec("count", "n"))),
}

#: what ``V`` holds: each row's value, or the one late row's
VALUES = {
    "small": lambda rng, i: rng.randrange(4),
    "negative": lambda rng, i: rng.randrange(-9, 2),
    "huge": lambda rng, i: rng.choice([-(2**40), 0, 2**40]),
    "late-float": lambda rng, i: 0.5 if i == 5000 else rng.randrange(4),
    "late-bool": lambda rng, i: True if i == 5000 else rng.randrange(4),
    "late-past-the-bound": lambda rng, i: 2**61 if i == 5000 else rng.randrange(4),
}


def array_rows(value, seed, users=23, n=6000):
    """``n`` rows in ``Time`` order, with ties, over ``users`` users, ``V``
    drawn by ``value``; some carry an ``_re``."""
    rng = random.Random(seed)
    rows, now = [], 0
    for i in range(n):
        now += rng.choice([0, 0, 1, 2, 3])
        row = {"Time": now, "StreamId": rng.randrange(2), "UserId": rng.randrange(users),
               "V": value(rng, i)}
        if rng.randrange(4) == 0:
            row["_re"] = now + 1 + rng.randrange(30)
        rows.append(row)
    return rows


@st.composite
def long_rows(draw):
    """About 6,000 :func:`array_rows` over up to 40 users."""
    return array_rows(
        VALUES[draw(st.sampled_from(sorted(VALUES)))],
        draw(st.integers(min_value=0, max_value=2**32)),
        draw(st.integers(min_value=1, max_value=40)),
        draw(st.integers(min_value=5200, max_value=7000)),
    )


def check_array_shape(name, data):
    keys, subplan = ARRAY_SHAPES[name]
    rows = data.draw(long_rows())
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply(keys, subplan)
    assert engine_run(query, rows) == oracle(query, rows)


@pytest.mark.parametrize("name", sorted(ARRAY_SHAPES))
@light
@given(data=st.data())
def test_keyed_counts_and_sums_over_rows_equal_the_oracle(name, data):
    check_array_shape(name, data)


@pytest.mark.oracle
@pytest.mark.parametrize("name", sorted(ARRAY_SHAPES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_keyed_counts_and_sums_over_rows_equal_the_oracle_heavy(name, data):
    check_array_shape(name, data)


#: ``Engine.run``'s output per ``ARRAY_SHAPES`` x ``VALUES`` cell over
#: ``array_rows(value, i)``, ``i`` the value's place in ``sorted(VALUES)``,
#: as it was when a late unfit value converted the node to chains mid-run:
#: the re-run on chains must give it byte for byte
ARRAY_DIGESTS = {
    'bare-count-sum-huge': '71c1eb8b96e047fd', 'bare-count-sum-late-bool': '6212a455c1826aea',
    'bare-count-sum-late-float': 'cdb651d1dbeacee5',
    'bare-count-sum-late-past-the-bound': '30fd3372eb584f6b',
    'bare-count-sum-negative': '5e18fdf579013082', 'bare-count-sum-small': '8a123e32d8cbefa2',
    'compound-keys-huge': '6b90526d98aa04f8', 'compound-keys-late-bool': '03bcbbf9cc1b960b',
    'compound-keys-late-float': 'd20394d83b2ee951',
    'compound-keys-late-past-the-bound': '0a45426e6aabafd5',
    'compound-keys-negative': 'ff7ba3106c39ec8d', 'compound-keys-small': 'a402cb9e8bb61810',
    'count-huge': '8794dc0487fb5827', 'count-late-bool': '4171a903b7e749b2',
    'count-late-float': 'c072838a2e27e338', 'count-late-past-the-bound': '0506d7e5f5506f9c',
    'count-negative': '89154c59ef7dd857', 'count-small': '6be4aa231c6a0edf',
    'hop-count-sum-huge': '55ea9d3fa532c090', 'hop-count-sum-late-bool': 'a4469a31507e3169',
    'hop-count-sum-late-float': '50f8b1e02ab0f5a6',
    'hop-count-sum-late-past-the-bound': '298ef49115946841',
    'hop-count-sum-negative': 'eb6ba753d7f322d5', 'hop-count-sum-small': '0ea1d28ad0236a11',
    'shift-hop-sum-huge': '3651d3c70b882d76', 'shift-hop-sum-late-bool': '5d4b32a514651029',
    'shift-hop-sum-late-float': '9fc0df5777db4c31',
    'shift-hop-sum-late-past-the-bound': '3838c9aeb86c9f1c',
    'shift-hop-sum-negative': '9fdec44891990bd1', 'shift-hop-sum-small': 'f4a1c1562b9aba6b',
    'sum-huge': '7d07d86cf1639158', 'sum-late-bool': 'b80b37f6aa3c999d',
    'sum-late-float': '92c0df09b19daf8c', 'sum-late-past-the-bound': '6cf5671ed9a7ae68',
    'sum-negative': 'd8b85e435940ca59', 'sum-small': '105291d6e090a518',
}


@pytest.mark.parametrize("value", sorted(VALUES))
@pytest.mark.parametrize("shape", sorted(ARRAY_SHAPES))
def test_keyed_counts_and_sums_keep_their_output(shape, value):
    keys, subplan = ARRAY_SHAPES[shape]
    query = Query.source("logs", ("StreamId", "UserId", "V")).group_apply(keys, subplan)
    rows = array_rows(VALUES[value], sorted(VALUES).index(value))
    assert output_digest(Engine().run(query, {"logs": rows})) == ARRAY_DIGESTS[f"{shape}-{value}"]


# -- lifetimes shifted below the beginning of time -------------------------------
#
# A source's times start at ``MIN_TIME``, but a backward shift moves LEs
# below it. Every position's watermark starts at its own floor (the
# sources', less what the steps on the way move an LE back), so neither
# per-key chains nor the array form take the beginning of time for a
# promise: pushed one at a time, through ``Engine.run`` and through the
# array form a wave per row, rows from ``MIN_TIME`` on give the oracle's
# relation. Each seed draws 2 to 13 rows over three users and a backward
# shift of up to 7 ticks, placed by the seed among ``NEAR_MIN_SHAPES``.

NEAR_MIN_SHAPES = [
    lambda a, b: (lambda g: g.shift(-a, -b).sum("V", into="s")),
    lambda a, b: (lambda g: g.window(b + 1).shift(-a).count(into="n")),
    lambda a, b: (lambda g: g.shift(-a).hopping_window(3, 3).count(into="n")),
    lambda a, b: (lambda g: g.hopping_window(4, 2).shift(-a, -b).sum("V", into="s")),
    lambda a, b: (lambda g: g.shift(-a).window(3).sum("V", into="s")),
]


def near_min_time(seed):
    """``(query, rows)``: rows from ``MIN_TIME`` on, some with an ``_re``."""
    rng = random.Random(seed)
    t, rows = MIN_TIME + rng.randrange(0, 3), []
    for _ in range(rng.randrange(2, 14)):
        row = {"Time": t, "UserId": rng.choice("abc"), "V": rng.randrange(-2, 4)}
        if rng.random() < 0.3:
            row["_re"] = t + rng.choice([1, 2, 5, 9])
        rows.append(row)
        t += rng.choice([0, 0, 1, 2, 5])
    back = rng.randrange(1, 8)
    sub = NEAR_MIN_SHAPES[seed % len(NEAR_MIN_SHAPES)](back, rng.randrange(0, back + 1))
    return Query.source("logs", ("UserId", "V")).group_apply("UserId", sub), rows


def array_form_per_row(query, rows):
    """A ``Dataflow`` in the array form (a wave threshold of 1), fed a
    source's rows one at a time."""
    flow = Dataflow(query.to_plan(), allow_unstreamable=True, group_wave_events=1)
    out = []
    for row in rows:
        les, view = engine_module._source([dict(row)])
        flow.feed("logs", view(0, 1), les[-1])
        out.extend(flow.advance())
    return normalize(out + list(flow.flush()))


def check_near_min_time(seed):
    query, rows = near_min_time(seed)
    want = oracle(query, [dict(row) for row in rows])
    assert stream(query, [("push", row) for row in rows]) == want
    assert engine_run(query, [dict(row) for row in rows]) == want
    assert array_form_per_row(query, rows) == want


@pytest.mark.parametrize("seed", range(0, 300, 10))
def test_lifetimes_shifted_below_the_beginning_of_time(seed):
    check_near_min_time(seed)


@pytest.mark.oracle
@pytest.mark.parametrize("seed", range(300))
def test_lifetimes_shifted_below_the_beginning_of_time_heavy(seed):
    check_near_min_time(seed)


# -- lifetime rewrites ahead of the aggregate ------------------------------------
#
# ``SHIFT_CHAINS`` (``test_row_ingest.py``) open each ``FUSION_SHAPES``
# sub-plan with shifts and hops, KE-z's ``shift(1)`` then a hop among them.
# ``Engine.run`` over rows (some with an ``_re`` of their own) and a
# one-fragment ``TiMR.run`` hold to the oracle.


def check_chain(chain, subplan, data, entry, rows=None):
    """``rows`` or, when ``None``, a drawn history."""
    if rows is None:
        rows = pushed(data.draw(histories())[1])
        for row in rows:
            if data.draw(st.booleans()):
                row["_re"] = row["Time"] + data.draw(st.integers(min_value=1, max_value=12))
    query = build("source", "chained", chained(chain, subplan))
    want = oracle(query, [dict(row) for row in rows])
    assert (engine_run if entry == "engine" else timr_run)(query, rows) == want


chain_cells = pytest.mark.parametrize(
    "chain, subplan", [(c, s) for s in sorted(FUSION_SHAPES) for c in sorted(SHIFT_CHAINS)]
)
entries = pytest.mark.parametrize("entry", ["engine", "timr"])


@chain_cells
@entries
@light  # one example would be the empty history: hypothesis draws it first
@given(data=st.data())
def test_rewrite_chains_equal_the_oracle(chain, subplan, entry, data):
    # a TiMR cell draws nothing, so hypothesis runs it once, on the
    # fixed history
    check_chain(chain, subplan, data, entry, fixed_rows() if entry == "timr" else None)


@pytest.mark.oracle
@chain_cells
@entries
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rewrite_chains_equal_the_oracle_heavy(chain, subplan, entry, data):
    check_chain(chain, subplan, data, entry)
