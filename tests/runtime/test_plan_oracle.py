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
histories with hostile values (the keyed sweep's array form and its
conversion to the loop). Histories are hypothesis-generated:
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
from repro.temporal import Engine, Query, StreamingEngine, normalize, relation
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
    "windowed-udo-every-boundary": lambda q: q.udo_hopping(6, 4, _window_payloads,
                                                           skip_empty=False),
    "snapshot-udo": lambda q: q.window(5).udo_snapshot(_snapshot_payloads),
    "scan-udo": lambda q: q.udo_scan(dict, _running),
}
#: ``StreamingEngine`` fires every boundary a CTI passes, empty or not,
#: past the last window that sees an event: no per-push cell for it
UDO_BATCH_ONLY = {"windowed-udo-every-boundary"}


def check_udo(name, per_key, data):
    slack, script = data.draw(histories())
    query = _logs()
    query = query.group_apply("UserId", UDOS[name]) if per_key else UDOS[name](query)
    want = oracle(query, pushed(script))
    assert engine_run(query, pushed(script)) == want
    if name not in UDO_BATCH_ONLY:
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
# ``Engine.run`` over a source of rows may sweep a keyed GroupApply off the
# rows themselves (docs/EXECUTION.md, "Rows"). These cells feed the keyed
# shapes that read the source directly rows whose lifetimes are points or
# an ``_re`` of their own, and hold the result to the oracle over the
# decoded events.


def keyed_from_source():
    """The ``FUSION_SHAPES`` whose GroupApply, reading the source, runs as
    the keyed sweep."""
    shapes = []
    for subplan in sorted(FUSION_SHAPES):
        node = build("source", subplan, FUSION_SHAPES).to_plan()
        if dataflow._keyed_aggregate(node, dataflow._flat_plan(node)) is not None:
            shapes.append(subplan)
    return shapes


KEYED_FROM_SOURCE = keyed_from_source()


def check_rows(subplan, data):
    _, script = data.draw(histories())
    rows = pushed(script)
    for row in rows:
        if data.draw(st.booleans()):
            row["_re"] = row["Time"] + data.draw(st.integers(min_value=1, max_value=12))
    query = build("source", subplan, FUSION_SHAPES)
    assert engine_run(query, rows) == oracle(query, rows)


def test_the_keyed_from_source_shapes_are_the_expected_ones():
    assert KEYED_FROM_SOURCE == [
        "bare-count", "count", "exchange", "hopping-avg", "hopping-max",
        "hopping-min", "hopping-sum", "into-key-column", "multi-agg",
        "project-first", "shift-back", "shift-before-agg", "shift-forward",
        "sum", "topk", "where-before-agg", "where-first",
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
# int past the bound, a float time) turns the rest of the run over to the
# per-row loop. Histories here are long enough for the batch driver's
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


@st.composite
def long_rows(draw):
    """About 6,000 rows in ``Time`` order, with ties, over up to 40
    users; some carry an ``_re``."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    value = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    users = draw(st.integers(min_value=1, max_value=40))
    rows, now = [], 0
    for i in range(draw(st.integers(min_value=5200, max_value=7000))):
        now += rng.choice([0, 0, 1, 2, 3])
        row = {"Time": now, "StreamId": rng.randrange(2), "UserId": rng.randrange(users),
               "V": value(rng, i)}
        if rng.randrange(4) == 0:
            row["_re"] = now + 1 + rng.randrange(30)
        rows.append(row)
    return rows


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
