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
same comparison. Histories are hypothesis-generated:
ties, slack 0 and 4, CTIs, and sometimes one hot key that takes most
rows. Tier-1 runs a light profile
(a couple of histories per cell); the ``oracle`` marker selects the heavy
one (``make test-oracle``).
"""

import ast
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import Cluster, DistributedFileSystem
from repro.temporal import Engine, Query, StreamingEngine, normalize, relation
from repro.temporal.event import rows_to_events
from repro.temporal.relation import ref_plan
from repro.timr import TiMR
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


def check_timr(prefix, subplan, data):
    _, script = data.draw(histories())
    query = build(prefix, subplan, FUSION_SHAPES)
    rows = pushed(script)
    assert timr_run(query, rows) == oracle(query, rows)


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
@settings(max_examples=1, deadline=None)
@given(data=st.data())
def test_timr_run_equals_the_oracle(prefix, subplan, data):
    check_timr(prefix, subplan, data)


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
    check_timr(prefix, subplan, data)


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
