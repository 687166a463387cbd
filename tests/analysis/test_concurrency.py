"""Capture-safety rules (``parallel.*``): each fires on its hazard, stays
silent on a clean equivalent, and honours suppression."""

import os

from repro.analysis import analyze
from repro.temporal import Query
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


#: the capture-safety rule family
PARALLEL_RULES = {
    "parallel.shared-mutable-capture",
    "parallel.ambient-env",
    "parallel.order-dependent-reduce",
}


class TestSharedMutableCapture:
    def test_mutable_module_global_read(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)
        assert "parallel.shared-mutable-capture" in rule_ids(q)

    def test_mutable_module_global_write(self):
        def tally(p):
            SHARED_COUNTS[p["UserId"]] = p["AdId"]
            return True

        q = src().where(tally)
        report = analyze(q)
        assert "parallel.shared-mutable-capture" in report.rule_ids()
        # the write is reported once, not double-reported as a read too
        hits = [
            d
            for d in report.diagnostics
            if d.rule == "parallel.shared-mutable-capture"
        ]
        assert len(hits) == 1

    def test_immutable_global_is_clean(self):
        q = src().where(lambda p: p["StreamId"] < THRESHOLD)
        assert "parallel.shared-mutable-capture" not in rule_ids(q)

    def test_closure_cell_inside_group_apply(self):
        seen = []
        q = src().group_apply(
            "UserId",
            lambda g: g.where(lambda p: p["AdId"] not in seen)
            .window(hours(1))
            .count(into="n"),
        )
        assert "parallel.shared-mutable-capture" in rule_ids(q)

    def test_top_level_closure_cell_is_not_parallel_flagged(self):
        # outside GroupApply scope the closure is not shared across
        # schedules; only determinism.mutable-closure (warning) applies
        seen = []
        q = src().where(lambda p: p["UserId"] not in seen)
        report = analyze(q)
        assert "parallel.shared-mutable-capture" not in report.rule_ids()
        assert "determinism.mutable-closure" in report.rule_ids()

    def test_immutable_closure_inside_group_apply_is_clean(self):
        limit = 3
        q = src().group_apply(
            "UserId",
            lambda g: g.where(lambda p: p["AdId"] < limit)
            .window(hours(1))
            .count(into="n"),
        )
        assert not (rule_ids(q) & PARALLEL_RULES)


class TestAmbientEnv:
    def test_os_environ_read(self):
        q = src().where(lambda p: os.environ.get("MODE") == "full")
        assert "parallel.ambient-env" in rule_ids(q)

    def test_os_getenv_read(self):
        q = src().where(lambda p: os.getenv("MODE") == "full")
        assert "parallel.ambient-env" in rule_ids(q)

    def test_other_os_attrs_are_clean(self):
        q = src().where(lambda p: os.path.sep == "/")
        assert "parallel.ambient-env" not in rule_ids(q)


class TestOrderDependentReduce:
    def test_udo_accumulating_into_closure(self):
        totals = {}

        def merge(payloads):
            totals["n"] = totals.get("n", 0) + len(payloads)
            return [{"n": totals["n"]}]

        q = src().udo_snapshot(merge)
        assert "parallel.order-dependent-reduce" in rule_ids(q)

    def test_pure_udo_is_clean(self):
        q = src().udo_snapshot(lambda payloads: [{"n": len(payloads)}])
        assert "parallel.order-dependent-reduce" not in rule_ids(q)

    def test_same_write_outside_reduce_is_capture_rule(self):
        # identical hazard in a non-reduce operator reports as
        # shared-mutable-capture, not order-dependent-reduce
        def tally(p):
            SHARED_COUNTS[p["UserId"]] = 1
            return True

        q = src().where(tally)
        ids = rule_ids(q)
        assert "parallel.order-dependent-reduce" not in ids
        assert "parallel.shared-mutable-capture" in ids


class TestSuppression:
    def test_ignore_comment_suppresses_parallel_rule(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)  # repro: ignore[parallel.shared-mutable-capture]
        assert "parallel.shared-mutable-capture" not in rule_ids(q)

    def test_typo_in_parallel_rule_id_is_flagged(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)  # repro: ignore[parallel.shared-mutable-caputre]
        report = analyze(q)
        assert "suppression.unknown-rule" in report.rule_ids()
        # the misspelt id suppresses nothing
        assert "parallel.shared-mutable-capture" in report.rule_ids()

    def test_global_ignore_flag(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)
        report = analyze(q, ignore=["parallel.shared-mutable-capture"])
        assert "parallel.shared-mutable-capture" not in report.rule_ids()


class TestGateHelpers:
    def test_parallel_rules_are_warnings_not_errors(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)
        report = analyze(q)
        assert not report.errors  # a warning never blocks a run
