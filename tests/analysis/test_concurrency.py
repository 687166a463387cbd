"""Shared-state rules of the determinism pass (``determinism.shared-state``
and ``determinism.ambient-env``, once the ``parallel.*`` capture rules):
each fires on its hazard, stays silent on a clean equivalent, reports a
cell once, and honours suppression."""

import os
import random

from repro.analysis import RULES, analyze
from repro.temporal import Query
from repro.temporal.operators import AggSpec
from repro.temporal.time import hours

COLS = ("StreamId", "UserId", "AdId")

#: a module-level mutable global for the capture tests
SHARED_COUNTS = {}
#: an immutable module global must never be flagged
THRESHOLD = 5


def src():
    return Query.source("logs", COLS)


def rule_ids(query):
    return analyze(query).rule_ids()


def findings(query):
    return [d.rule for d in analyze(query).diagnostics]


#: the rules that say output depends on the partition count or on resume
SHARED_RULES = {"determinism.shared-state", "determinism.ambient-env"}


class TestSharedMutableCapture:
    def test_mutable_module_global_read(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)
        assert findings(q) == ["determinism.shared-state"]

    def test_mutable_module_global_write(self):
        def tally(p):
            SHARED_COUNTS[p["UserId"]] = p["AdId"]
            return True

        q = src().where(tally)
        # the write is reported once, not double-reported as a read too
        assert findings(q) == ["determinism.shared-state"]

    def test_immutable_global_is_clean(self):
        q = src().where(lambda p: p["StreamId"] < THRESHOLD)
        assert not rule_ids(q)

    def test_closure_cell_inside_group_apply(self):
        """One captured list in a group ``where`` is one finding: the
        GroupApply scope does not report the same cell a second time."""
        seen = []
        q = src().group_apply(
            "UserId",
            lambda g: g.where(lambda p: p["AdId"] not in seen)
            .window(hours(1))
            .count(into="n"),
        )
        assert findings(q) == ["determinism.mutable-closure"]

    def test_top_level_closure_cell_is_not_parallel_flagged(self):
        seen = []
        q = src().where(lambda p: p["UserId"] not in seen)
        assert findings(q) == ["determinism.mutable-closure"]

    def test_immutable_closure_inside_group_apply_is_clean(self):
        limit = 3
        q = src().group_apply(
            "UserId",
            lambda g: g.where(lambda p: p["AdId"] < limit)
            .window(hours(1))
            .count(into="n"),
        )
        assert not rule_ids(q)


class TestAmbientEnv:
    def test_os_environ_read(self):
        q = src().where(lambda p: os.environ.get("MODE") == "full")
        assert "determinism.ambient-env" in rule_ids(q)

    def test_os_getenv_read(self):
        q = src().where(lambda p: os.getenv("MODE") == "full")
        assert "determinism.ambient-env" in rule_ids(q)

    def test_other_os_attrs_are_clean(self):
        q = src().where(lambda p: os.path.sep == "/")
        assert "determinism.ambient-env" not in rule_ids(q)


class TestOrderDependentReduce:
    def test_udo_accumulating_into_closure(self):
        totals = {}

        def merge(payloads):
            totals["n"] = totals.get("n", 0) + len(payloads)
            return [{"n": totals["n"]}]

        q = src().udo_snapshot(merge)
        assert "determinism.shared-state" in rule_ids(q)

    def test_pure_udo_is_clean(self):
        q = src().udo_snapshot(lambda payloads: [{"n": len(payloads)}])
        assert not rule_ids(q)

    def test_same_write_outside_reduce_is_capture_rule(self):
        """The same write is the same rule in a UDO and in a ``where``."""

        def tally(p):
            SHARED_COUNTS[p["UserId"]] = 1
            return True

        def merge(payloads):
            SHARED_COUNTS["n"] = 1
            return []

        assert findings(src().where(tally)) == ["determinism.shared-state"]
        assert findings(src().udo_snapshot(merge)) == ["determinism.shared-state"]

    def test_aggregate_param_callable_is_checked_like_a_udo(self):
        """A callable handed to an aggregate spec meets every
        determinism rule, not only the shared-state ones."""
        spec = AggSpec("topk", "top", "AdId", k=2, rank=lambda v: random.random())
        ids = rule_ids(src().aggregate(spec))
        assert "determinism.impure-call" in ids


class TestSuppression:
    def test_ignore_comment_suppresses_parallel_rule(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)  # repro: ignore[determinism.shared-state]
        assert "determinism.shared-state" not in rule_ids(q)

    def test_typo_in_parallel_rule_id_is_flagged(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)  # repro: ignore[determinism.shared-stat]
        report = analyze(q)
        assert "suppression.unknown-rule" in report.rule_ids()
        # the misspelt id suppresses nothing
        assert "determinism.shared-state" in report.rule_ids()

    def test_global_ignore_flag(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)
        report = analyze(q, ignore=["determinism.shared-state"])
        assert "determinism.shared-state" not in report.rule_ids()


class TestGateHelpers:
    def test_parallel_rules_are_warnings_not_errors(self):
        assert {RULES[rule].severity for rule in SHARED_RULES} == {"warning"}
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)
        report = analyze(q)
        assert not report.errors  # a warning never blocks a run

    def test_retired_parallel_rules_are_unknown(self):
        assert not [rule for rule in RULES if rule.startswith("parallel.")]
