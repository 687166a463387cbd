"""Per-rule tests: each rule fires on its trigger and stays silent on a
clean equivalent."""

import random
import time

from repro.analysis import RULES, analyze
from repro.temporal import Query
from repro.temporal.time import hours

COLS = ("StreamId", "UserId", "AdId")


def src():
    return Query.source("logs", COLS)


def rule_ids(query):
    return analyze(query).rule_ids()


class TestRegistry:
    def test_all_rules_have_severity_and_summary(self):
        assert len(RULES) >= 13
        for rule in RULES.values():
            assert rule.severity in ("error", "warning")
            assert rule.summary

    def test_rule_families_present(self):
        families = {r.split(".")[0] for r in RULES}
        assert families == {
            "schema", "determinism", "partition", "lifetime",
            "batch", "suppression",
        }


class TestUnknownColumn:
    def test_where_on_missing_column(self):
        q = src().where(lambda p: p["Bogus"] == 1)
        report = analyze(q)
        assert "schema.unknown-column" in report.rule_ids()
        assert report.errors and not report.ok

    def test_where_on_known_column_is_clean(self):
        assert analyze(src().where(lambda p: p["UserId"] == 1)).ok

    def test_undeclared_source_lints_clean(self):
        # No declared schema -> three-valued inference stays silent.
        q = Query.source("logs").where(lambda p: p["Bogus"] == 1)
        assert analyze(q).ok

    def test_projection_reading_missing_column(self):
        q = src().project(lambda p: {"x": p["Nope"]}, columns=("x",))
        assert "schema.unknown-column" in rule_ids(q)

    def test_projection_redefines_schema_downstream(self):
        q = (
            src()
            .project(lambda p: {"x": p["UserId"]}, columns=("x",))
            .where(lambda p: p["x"] > 0)
        )
        assert analyze(q).ok

    def test_aggregate_over_missing_column(self):
        q = src().window(hours(1)).sum("Bogus", into="s")
        assert "schema.unknown-column" in rule_ids(q)

    def test_group_apply_on_missing_key(self):
        q = src().group_apply("Bogus", lambda g: g.window(hours(1)).count())
        assert "schema.unknown-column" in rule_ids(q)

    def test_group_apply_subplan_sees_group_schema(self):
        q = src().group_apply(
            "AdId",
            lambda g: g.where(lambda p: p["UserId"] == 1)
            .window(hours(1))
            .count(into="n"),
        )
        assert analyze(q).ok

    def test_join_on_missing_key(self):
        left = src()
        right = Query.source("other", ("UserId", "Score"))
        q = left.temporal_join(right, on="Missing")
        assert "schema.unknown-column" in rule_ids(q)

    def test_callable_with_declared_reads(self):
        fn = lambda p: True  # noqa: E731
        fn._repro_reads = frozenset({"NotThere"})
        q = src().where(fn)
        assert "schema.unknown-column" in rule_ids(q)


class TestKeyArity:
    def test_duplicate_group_apply_keys(self):
        q = src().group_apply(
            ("AdId", "AdId"), lambda g: g.window(hours(1)).count()
        )
        assert "schema.key-arity" in rule_ids(q)

    def test_duplicate_exchange_key(self):
        q = src().exchange("AdId", "AdId").where(lambda p: True)
        assert "schema.key-arity" in rule_ids(q)

    def test_single_key_is_clean(self):
        q = src().group_apply("AdId", lambda g: g.window(hours(1)).count())
        assert analyze(q).ok


class TestDeterminism:
    def test_random_in_projection(self):
        q = src().project(
            lambda p: {**p, "r": random.random()}, columns=COLS + ("r",)
        )
        report = analyze(q)
        assert "determinism.impure-call" in report.rule_ids()
        assert any("random" in d.message for d in report.errors)

    def test_pure_projection_is_clean(self):
        q = src().project(lambda p: {**p, "r": 2 * p["StreamId"]},
                          columns=COLS + ("r",))
        assert analyze(q).ok

    def test_mutable_default_argument(self):
        def keep(p, seen=[]):  # noqa: B006 - deliberate hazard
            seen.append(p["UserId"])
            return True

        q = src().where(keep)
        assert "determinism.mutable-default" in rule_ids(q)

    def test_mutable_closure_is_warning_only(self):
        seen = []
        q = src().where(lambda p: p["UserId"] not in seen)
        report = analyze(q)
        assert "determinism.mutable-closure" in report.rule_ids()
        assert not report.errors  # warning severity: still runnable

    def test_immutable_closure_is_clean(self):
        threshold = 5
        q = src().where(lambda p: p["StreamId"] < threshold)
        assert analyze(q).ok

    def test_builtin_hash_is_warning(self):
        q = src().where(lambda p: hash(p["UserId"]) % 2 == 0)
        report = analyze(q)
        assert "determinism.unstable-hash" in report.rule_ids()
        assert not report.errors

    def test_impure_udo(self):
        q = src().udo_snapshot(lambda payloads: [{"t": time.time()}])  # wallclock: ok (never called; the impurity IS what the analyzer must flag)
        assert "determinism.impure-call" in rule_ids(q)


class TestPartitionSafety:
    def test_global_aggregate_under_payload_key(self):
        q = src().exchange("UserId").count(into="n")
        assert "partition.constraint-violation" in rule_ids(q)

    def test_group_apply_under_matching_key_is_clean(self):
        q = src().exchange("AdId").group_apply(
            "AdId", lambda g: g.window(hours(1)).count()
        )
        assert analyze(q).ok

    def test_conflicting_keys_into_union(self):
        left = src().exchange("UserId")
        right = src().exchange("AdId")
        assert "partition.key-conflict" in rule_ids(left.union(right))

    def test_exchanged_and_raw_mix(self):
        q = src().exchange("UserId").union(src())
        assert "partition.key-conflict" in rule_ids(q)

    def test_identically_keyed_union_is_clean(self):
        q = src().exchange("UserId").union(src().exchange("UserId"))
        assert analyze(q).ok

    def test_exchange_on_missing_column(self):
        q = src().exchange("Bogus")
        assert "partition.missing-column" in rule_ids(q)

    def test_unannotated_plan_skips_partition_pass(self):
        # No explicit exchange: the optimizer will pick a valid key.
        assert analyze(src().count(into="n")).ok

    def test_unbounded_extent_under_temporal_exchange(self):
        q = src().exchange().count_window(5)
        report = analyze(q)
        assert "partition.unbounded-extent" in report.rule_ids()
        assert not report.errors  # warning: degrades, not breaks


class TestLifetimeParameters:
    def test_zero_width_window(self):
        assert "lifetime.bad-window" in rule_ids(src().window(0))

    def test_hop_not_dividing_width(self):
        assert "lifetime.bad-window" in rule_ids(src().hopping_window(10, 3))

    def test_negative_hop(self):
        assert "lifetime.bad-window" in rule_ids(src().hopping_window(10, -2))

    def test_zero_count_window(self):
        assert "lifetime.bad-window" in rule_ids(src().count_window(0))

    def test_zero_session_gap(self):
        assert "lifetime.bad-window" in rule_ids(src().session_window(0))

    def test_valid_windows_are_clean(self):
        q = src().window(hours(6))
        assert analyze(q).ok
        assert analyze(src().hopping_window(hours(6), hours(2))).ok
        assert analyze(src().count_window(10)).ok
        assert analyze(src().session_window(hours(1))).ok

    def test_custom_alter_lifetime_warns(self):
        q = src().alter_lifetime(lambda le, re: le, lambda le, re: re)
        report = analyze(q)
        assert "lifetime.opaque-alter" in report.rule_ids()
        assert not report.errors


class TestReport:
    def test_acceptance_scenario_three_distinct_rules(self):
        """The ISSUE acceptance query: unknown column + impure UDF +
        global aggregate under a payload key, one error each."""
        q = (
            src()
            .where(lambda p: p["Missing"] > 0)
            .project(lambda p: {**p, "r": random.random()},
                     columns=COLS + ("r",))
            .exchange("UserId")
            .count(into="n")
        )
        report = analyze(q)
        assert {
            "schema.unknown-column",
            "determinism.impure-call",
            "partition.constraint-violation",
        } <= report.rule_ids()
        assert len(report.errors) >= 3

    def test_render_carets_mark_offending_nodes(self):
        q = src().where(lambda p: p["Bogus"] == 1)
        text = analyze(q).render()
        assert "^~~" in text
        assert "schema.unknown-column" in text

    def test_errors_sort_before_warnings(self):
        seen = []
        q = (
            src()
            .where(lambda p: p["UserId"] not in seen)  # warning
            .window(0)  # error
        )
        report = analyze(q)
        severities = [d.effective_severity for d in report.diagnostics]
        assert severities == sorted(severities, key=("error", "warning").index)

    def test_diagnostics_carry_node_and_location(self):
        q = src().where(lambda p: p["Bogus"] == 1)
        (diag,) = analyze(q).errors
        assert diag.node == "where"
        assert diag.location is not None
        assert diag.location[0].endswith("test_rules.py")
