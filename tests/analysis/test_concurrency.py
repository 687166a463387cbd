"""Parallel-safety rules: each fires on its hazard, stays silent on a
clean equivalent, honours suppression, and drives TiMR's executor gate."""

import io
import os
import threading
import warnings

import pytest

from repro.analysis import (
    STATIC_PARALLEL_RULES,
    analyze,
    blocking_findings,
    parallel_safety_findings,
)
from repro.mapreduce import Cluster, CostModel, DistributedFileSystem
from repro.runtime import ParallelSafetyWarning, RunContext
from repro.temporal import Query
from repro.temporal.time import hours
from repro.timr import TiMR

COLS = ("StreamId", "UserId", "AdId")

#: a module-level mutable global for the capture tests
SHARED_COUNTS = {}
#: an immutable module global must never be flagged
THRESHOLD = 5


def src():
    return Query.source("logs", COLS)


def rule_ids(query):
    return analyze(query).rule_ids()


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
        assert not (rule_ids(q) & STATIC_PARALLEL_RULES)


class TestForkUnsafeCapture:
    def test_captured_open_file(self):
        handle = io.StringIO("x")
        q = src().where(lambda p: bool(handle) and p["StreamId"] > 0)
        assert "parallel.fork-unsafe-capture" in rule_ids(q)

    def test_captured_lock(self):
        lock = threading.Lock()
        q = src().where(lambda p: lock is not None)
        assert "parallel.fork-unsafe-capture" in rule_ids(q)

    def test_captured_generator(self):
        gen = (i for i in range(3))
        q = src().where(lambda p: gen is not None)
        assert "parallel.fork-unsafe-capture" in rule_ids(q)

    def test_plain_captures_are_clean(self):
        label = "clicks"
        q = src().where(lambda p: label in str(p["StreamId"]))
        assert "parallel.fork-unsafe-capture" not in rule_ids(q)


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

    def test_suppressed_finding_does_not_block_the_gate(self):
        q = src().where(lambda p: p["UserId"] in SHARED_COUNTS)  # repro: ignore[parallel.shared-mutable-capture]
        assert blocking_findings(q.to_plan(), "thread") == []

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
        assert not report.errors  # serial runs must never be blocked

    def test_fork_unsafe_blocks_process_only(self):
        handle = io.StringIO("x")
        plan = src().where(lambda p: bool(handle)).to_plan()
        assert blocking_findings(plan, "process")
        assert blocking_findings(plan, "thread") == []

    def test_shared_capture_blocks_all_parallel_kinds(self):
        plan = src().where(lambda p: p["UserId"] in SHARED_COUNTS).to_plan()
        assert blocking_findings(plan, "thread")
        assert blocking_findings(plan, "process")

    def test_findings_are_memoized_per_plan(self):
        plan = src().where(lambda p: p["UserId"] in SHARED_COUNTS).to_plan()
        first = parallel_safety_findings(plan)
        assert parallel_safety_findings(plan) == first


class TestTiMRGate:
    """A mutable object captured by a GroupApply UDF is flagged
    statically, so a parallel ``TiMR.run`` auto-falls-back to serial with
    a diagnostic — no map/reduce fan-out — and the output stays
    byte-identical to serial."""

    def _unsafe_query(self, registry):
        return src().group_apply(
            "UserId",
            lambda g: g.where(lambda p: p["AdId"] not in registry)
            .window(hours(1))
            .count(into="n"),
        )

    def _safe_query(self):
        return src().group_apply(
            "UserId", lambda g: g.window(hours(1)).count(into="n")
        )

    def _run(self, query, executor="thread", validate=True, **context):
        fs = DistributedFileSystem()
        rows = [
            {"Time": i, "StreamId": 1, "UserId": i % 3, "AdId": i % 5}
            for i in range(60)
        ]
        # partitioned input, so the map phase has something to fan out
        fs.write("logs", rows, num_partitions=3)
        cluster = Cluster(
            fs=fs,
            cost_model=CostModel(num_machines=3),
            context=RunContext(executor=executor, max_workers=4, **context),
        )
        return TiMR(cluster).run(query, num_partitions=3, validate=validate)

    def _run_ungated(self, query, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelSafetyWarning)
            return self._run(query, **kwargs)

    def test_unsafe_plan_falls_back_to_serial(self):
        q = self._unsafe_query({})
        with pytest.warns(ParallelSafetyWarning, match="falling back to serial"):
            result = self._run(q)
        assert result.parallel is None  # no fan-out happened

    def test_fallback_output_matches_serial(self):
        serial = self._run(self._unsafe_query({}), executor="serial")
        with pytest.warns(ParallelSafetyWarning):
            gated = self._run(self._unsafe_query({}))
        assert serial.parallel is None and gated.parallel is None
        assert gated.output_rows() == serial.output_rows()

    def test_safe_plan_is_not_gated(self):
        result = self._run_ungated(self._safe_query())
        assert result.parallel is not None
        assert result.parallel["executor"] == "thread"

    def test_force_parallel_skips_the_gate(self):
        result = self._run_ungated(
            self._unsafe_query({}), force_parallel=True
        )
        assert result.parallel is not None

    def test_env_force_parallel_skips_the_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        result = self._run_ungated(self._unsafe_query({}))
        assert result.parallel is not None

    def test_validate_false_skips_the_gate(self):
        result = self._run_ungated(self._unsafe_query({}), validate=False)
        assert result.parallel is not None
