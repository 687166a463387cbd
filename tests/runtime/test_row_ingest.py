"""A source of rows ≡ the same source decoded to events first.

``Engine.run`` takes a source as ``Event`` objects or as M-R rows
(``Time``, an optional ``_re``, the payload columns). Whatever a run
does with rows internally, each cell below must give what it gives for
``point_events(rows)``, the codec's own decode: the same output events
in the same order with the same payload column order, the same
``last_stats.operator_events`` and the same ``Dataflow.chain_advances``.

The cells are every ``FUSION_SHAPES`` × ``PREFIXES`` GroupApply of
``test_wake_scheduling.py`` (the keyed sweep, flat chains, nested
GroupApply, deferred rewrites) and every one-source ``TOP_SHAPES`` cell
of ``test_top_level.py``, over point rows and over rows where some
carry an ``_re``, in the default batch size and in small batches.
"""

import contextlib
from unittest import mock

import pytest

from repro.runtime import RunContext
from repro.temporal import Engine
from repro.temporal import engine as engine_module
from repro.temporal.event import point_events
from tests.runtime.test_top_level import TOP_SHAPES, top_sources
from tests.runtime.test_wake_scheduling import FUSION_SHAPES, PREFIXES, build, wave_rows


def ordered(events):
    """Each event with its payload's column order spelled out."""
    return [(e.le, e.re, list(e.payload.items())) for e in events]


def interval_rows(n):
    """:func:`wave_rows` where every third row carries an ``_re``."""
    rows = wave_rows(n)
    for i, row in enumerate(rows[::3]):
        row["_re"] = row["Time"] + 1 + i % 5
    return rows


ROWS = {"points": lambda: wave_rows(2500), "intervals": lambda: interval_rows(2500)}
BATCHES = {"default": None, "small": 97}


@contextlib.contextmanager
def recorded_flows(flows):
    """Keep every ``Dataflow`` an ``Engine.run`` builds."""
    build_flow = engine_module.Dataflow

    def recording(*args, **kwargs):
        flows.append(build_flow(*args, **kwargs))
        return flows[-1]

    with mock.patch.object(engine_module, "Dataflow", recording):
        yield


def run(query, sources, batch):
    """``(output, operator events, chain advances)`` of one run."""
    context = RunContext() if batch is None else RunContext(batch_size=batch)
    engine = Engine(context=context)
    flows = []
    with recorded_flows(flows):
        out = engine.run(query, sources, validate=False)
    (flow,) = flows
    return ordered(out), engine.last_stats.operator_events, flow.chain_advances


def assert_rows_equal_events(build_query, sources, batch):
    as_rows = run(build_query(), sources, batch)
    as_events = run(
        build_query(),
        {name: point_events(rows) for name, rows in sources.items()},
        batch,
    )
    assert as_rows == as_events
    return as_rows


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("rows", sorted(ROWS))
@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("subplan", sorted(FUSION_SHAPES))
def test_group_apply_over_rows_equals_over_events(subplan, prefix, rows, batch):
    out, _, advances = assert_rows_equal_events(
        lambda: build(prefix, subplan, FUSION_SHAPES), {"logs": ROWS[rows]()},
        BATCHES[batch],
    )
    assert out and advances


ONE_SOURCE = sorted(
    name for name in TOP_SHAPES if len(top_sources(name, wave_rows(200))) == 1
)


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("rows", sorted(ROWS))
@pytest.mark.parametrize("name", ONE_SOURCE)
def test_top_level_over_rows_equals_over_events(name, rows, batch):
    out, _, _ = assert_rows_equal_events(
        TOP_SHAPES[name][0], top_sources(name, ROWS[rows]()), BATCHES[batch]
    )
    assert out


def test_the_one_source_cells_are_the_expected_ones():
    assert ONE_SOURCE == [
        "bare-source", "bot-elimination", "custom-lifetime", "exchange-where",
        "group-then-where", "keyed-root", "multicast", "union-of-wheres",
    ]
