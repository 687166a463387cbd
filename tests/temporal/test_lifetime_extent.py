"""Every plan node's own lifetime extent, and how a plan's composes.

A lifetime extent is ``(past, future)``, each side ``None`` when
unbounded (docs/OPERATORS.md). Temporal partitioning needs both sides
bounded, streaming only the future side. A node that does not override
``lifetime_extent`` inherits ``(0, 0)``, which is wrong for anything
that looks further than the event at hand; the table below names every
node type, so a new one fails here until its extent is written down.
"""

import pytest

from repro.temporal import Query
from repro.temporal import plan as plan_module
from repro.temporal.plan import PlanNode, subplan_extent


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _fold(state, payload, le):
    return [state]


def _src():
    return Query.source("s")


#: (plan node type, a plan rooted at one, that root's own extent)
OWN_EXTENTS = {
    "source": ("SourceNode", _src, (0, 0)),
    "group-input": ("GroupInputNode", None, (0, 0)),
    "where": ("WhereNode", lambda: _src().where(bool), (0, 0)),
    "project": ("ProjectNode", lambda: _src().project(dict), (0, 0)),
    "window": ("AlterLifetimeNode", lambda: _src().window(10), (10, 0)),
    "hop": ("AlterLifetimeNode", lambda: _src().hopping_window(12, 4), (16, 0)),
    "shift-back": ("AlterLifetimeNode", lambda: _src().shift(-3, 0), (0, 3)),
    "shift-forward": ("AlterLifetimeNode", lambda: _src().shift(5), (5, 0)),
    "point": ("AlterLifetimeNode", lambda: _src().to_points(), (0, 0)),
    "custom": (
        "AlterLifetimeNode",
        lambda: _src().alter_lifetime(lambda le, re: le, lambda le, re: re),
        (None, None),
    ),
    "count-window": ("CountWindowNode", lambda: _src().count_window(3), (None, 0)),
    "session-window": (
        "SessionWindowNode", lambda: _src().session_window(5), (None, 0)
    ),
    "aggregate": ("AggregateNode", lambda: _src().count(into="n"), (0, 0)),
    "group-apply": (
        "GroupApplyNode",
        lambda: _src().group_apply(
            "k", lambda g: g.shift(-2, 0).count_window(2).count(into="n")
        ),
        (None, 2),  # the sub-plan's, side by side
    ),
    "union": ("UnionNode", lambda: _src().union(_src()), (0, 0)),
    "temporal-join": (
        "TemporalJoinNode", lambda: _src().temporal_join(_src(), on="k"), (0, 0)
    ),
    "anti-semi-join": (
        "AntiSemiJoinNode", lambda: _src().anti_semi_join(_src(), on="k"), (0, 0)
    ),
    "windowed-udo": (
        "WindowedUDONode", lambda: _src().udo_hopping(8, 4, _fold), (12, 0)
    ),
    "snapshot-udo": ("SnapshotUDONode", lambda: _src().udo_snapshot(list), (0, 0)),
    "scan-udo": ("ScanUDONode", lambda: _src().udo_scan(dict, _fold), (None, 0)),
    "exchange": ("ExchangeNode", lambda: _src().exchange("k"), (0, 0)),
}


def test_every_plan_node_type_is_in_the_table():
    node_types = {
        cls.__name__
        for cls in _subclasses(PlanNode)
        if cls.__module__.startswith("repro.")
    }
    assert node_types == {name for name, _, _ in OWN_EXTENTS.values()}


@pytest.mark.parametrize("case", sorted(OWN_EXTENTS))
def test_own_extent(case):
    type_name, build, extent = OWN_EXTENTS[case]
    node_type = getattr(plan_module, type_name)
    node = node_type() if build is None else build().to_plan()
    assert type(node) is node_type
    assert node.lifetime_extent() == extent


class TestComposition:
    def test_sides_add_along_a_path(self):
        q = _src().window(10).shift(-3, 0).count(into="n")
        assert subplan_extent(q.to_plan()) == (10, 3)

    def test_an_unbounded_side_leaves_the_other_bounded(self):
        q = _src().shift(-3, 0).count_window(2).window(10)
        assert subplan_extent(q.to_plan()) == (None, 3)

    def test_branches_take_the_maximum_per_side(self):
        q = _src().window(10).union(_src().shift(-4, 0))
        assert subplan_extent(q.to_plan()) == (10, 4)

    def test_an_unbounded_branch_makes_that_side_unbounded(self):
        q = _src().session_window(5).union(_src().shift(-4, 0))
        assert subplan_extent(q.to_plan()) == (None, 4)

    def test_custom_rewrite_is_unbounded_on_both_sides(self):
        q = _src().window(10).alter_lifetime(lambda le, re: le, lambda le, re: re)
        assert subplan_extent(q.to_plan()) == (None, None)
