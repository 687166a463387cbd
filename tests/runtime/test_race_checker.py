"""ShadowRaceChecker: dynamic race detection and schedule perturbation."""

import pytest

from repro.runtime import RunContext, ShadowRaceChecker, race_check_mode
from repro.runtime.racecheck import ENV_RACE_CHECK, RaceWarning
from repro.temporal import Engine, Query
from repro.temporal.time import hours

COLS = ("StreamId", "UserId", "AdId")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_RACE_CHECK, raising=False)
    monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def rows(n=60):
    return [
        {"Time": i, "StreamId": 1, "UserId": i % 3, "AdId": i % 5}
        for i in range(n)
    ]


def unsafe_query(registry):
    """A GroupApply UDF capturing one mutable dict shared by all chains.

    Every event overwrites its ad's slot with the observing user, so
    each key chain keeps mutating the shared object — the hazard class
    the checker exists for.
    """

    def tag(p):
        registry[p["AdId"]] = p["UserId"]
        return True

    return Query.source("logs", COLS).group_apply(
        "UserId",
        lambda g: g.where(tag).window(hours(1)).count(into="n"),
    )


def safe_query():
    return Query.source("logs", COLS).group_apply(
        "UserId", lambda g: g.window(hours(1)).count(into="n")
    )


def raw(events):
    return [(e.le, e.re, tuple(sorted(e.payload.items()))) for e in events]


class TestMode:
    def test_off_by_default(self):
        assert race_check_mode() is None
        assert race_check_mode(RunContext()) is None

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_RACE_CHECK, value)
        assert race_check_mode() is None

    @pytest.mark.parametrize("value", ["1", "true", "shadow", "yes"])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_RACE_CHECK, value)
        assert race_check_mode() == "shadow"

    def test_perturb_env_value(self, monkeypatch):
        monkeypatch.setenv(ENV_RACE_CHECK, "perturb")
        assert race_check_mode() == "perturb"

    def test_context_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_RACE_CHECK, "1")
        assert race_check_mode(RunContext(race_check="perturb")) == "perturb"

    def test_context_true_means_shadow(self):
        assert race_check_mode(RunContext(race_check=True)) == "shadow"


class TestWaves:
    def test_results_in_task_order_forward_and_perturbed(self):
        for perturb in (False, True):
            checker = ShadowRaceChecker(perturb=perturb)
            tasks = [lambda i=i: i * 10 for i in range(5)]
            assert checker.run_wave(tasks, list(range(5))) == [
                0, 10, 20, 30, 40,
            ]

    def test_single_owner_mutation_is_not_a_race(self):
        checker = ShadowRaceChecker()
        state = []
        checker.track("state", state)
        checker.run_wave([lambda: state.append(1)], ["a"])
        checker.run_wave([lambda: state.append(2)], ["a"])
        assert checker.findings == []

    def test_two_owner_mutation_is_a_race(self):
        checker = ShadowRaceChecker()
        state = []
        checker.track("state", state)
        checker.run_wave(
            [lambda: state.append(1), lambda: state.append(2)], ["a", "b"]
        )
        assert len(checker.findings) == 1
        assert checker.findings[0].owners == ("a", "b")

    def test_cross_wave_attribution(self):
        # one owner per wave: still two distinct schedules on one object
        checker = ShadowRaceChecker()
        state = {}
        checker.track("state", state)
        checker.run_wave([lambda: state.update(x=1)], ["a"])
        checker.run_wave([lambda: state.update(y=2)], ["b"])
        assert len(checker.findings) == 1

    def test_each_object_is_flagged_once(self):
        checker = ShadowRaceChecker()
        state = []
        checker.track("state", state)
        for _ in range(3):
            checker.run_wave(
                [lambda: state.append(1), lambda: state.append(2)],
                ["a", "b"],
            )
        assert len(checker.findings) == 1


class TestEngineIntegration:
    def ctx(self, **kw):
        return RunContext(executor="thread", max_workers=4, **kw)

    def test_race_detected_when_gate_forced(self):
        engine = Engine(
            context=self.ctx(force_parallel=True, race_check=True)
        )
        with pytest.warns(RaceWarning, match="race"):
            engine.run(unsafe_query({}), {"logs": rows()})
        assert engine.last_race_findings
        (finding,) = engine.last_race_findings
        assert "registry" in finding.object_label
        assert len(finding.owners) >= 2
        # owners are the GroupApply keys of the chains, not wave positions
        assert set(finding.owners) <= {"(0,)", "(1,)", "(2,)"}

    def test_env_enables_checker(self, monkeypatch):
        monkeypatch.setenv(ENV_RACE_CHECK, "1")
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        engine = Engine(context=self.ctx())
        with pytest.warns(RaceWarning):
            engine.run(unsafe_query({}), {"logs": rows()})
        assert engine.last_race_findings

    def test_clean_plan_has_no_findings(self):
        engine = Engine(context=self.ctx(race_check=True))
        engine.run(safe_query(), {"logs": rows()})
        assert engine.last_race_findings == []

    def test_shadow_run_is_byte_identical_to_serial(self):
        serial = Engine(context=RunContext(executor="serial")).run(
            safe_query(), {"logs": rows()}
        )
        shadow = Engine(context=self.ctx(race_check=True)).run(
            safe_query(), {"logs": rows()}
        )
        assert raw(serial) == raw(shadow)

    def test_perturbed_run_is_byte_identical_for_safe_plans(self):
        serial = Engine(context=RunContext(executor="serial")).run(
            safe_query(), {"logs": rows()}
        )
        perturbed = Engine(context=self.ctx(race_check="perturb")).run(
            safe_query(), {"logs": rows()}
        )
        assert raw(serial) == raw(perturbed)

    def test_findings_reset_between_runs(self):
        engine = Engine(
            context=self.ctx(force_parallel=True, race_check=True)
        )
        with pytest.warns(RaceWarning):
            engine.run(unsafe_query({}), {"logs": rows()})
        assert engine.last_race_findings
        engine2 = Engine(context=self.ctx(race_check=True))
        engine2.run(safe_query(), {"logs": rows()})
        assert engine2.last_race_findings == []


class TestDynamicLint:
    def test_dynamic_check_reports_race(self):
        from repro.analysis.targets import dynamic_check

        diagnostics = dynamic_check(unsafe_query({}), rows())
        races = [d for d in diagnostics if d.rule == "parallel.dynamic-race"]
        assert len(races) == 1  # one diagnostic per object, not per run

    def test_dynamic_check_skips_plans_that_cannot_execute(self):
        # a plan reading a column the rows don't carry must be skipped,
        # not crash the lint run
        from repro.analysis.targets import dynamic_check

        q = Query.source("logs", COLS).group_apply(
            "UserId",
            lambda g: g.where(lambda p: p["Missing"] > 0)
            .window(hours(1))
            .count(into="n"),
        )
        assert dynamic_check(q, rows()) == []

    def test_dynamic_check_clean_plan(self):
        from repro.analysis.targets import dynamic_check

        assert dynamic_check(safe_query(), rows()) == []

    def test_schedule_divergence_detected(self):
        from repro.analysis.targets import dynamic_check

        # first-event-wins per ad: depends on which chain runs first, so
        # the perturbed (reversed) schedule emits different rows
        claimed = {}

        def claims(p):
            if p["AdId"] in claimed:
                return False
            claimed[p["AdId"]] = p["UserId"]
            return True

        q = Query.source("logs", COLS).group_apply(
            "UserId",
            lambda g: g.where(claims).window(hours(1)).count(into="n"),
        )
        # first-claim mutations saturate during whichever chain runs
        # first, so shadow attribution sees a single owner — only the
        # perturbed schedule exposes the hazard, as divergence.
        diagnostics = dynamic_check(q, rows())
        assert any(
            d.rule == "parallel.schedule-divergence" for d in diagnostics
        )

    def test_runnable_filter(self):
        from repro.analysis.targets import runnable_over_logs

        assert runnable_over_logs(safe_query())
        other = Query.source("profiles", ("UserId",)).where(
            lambda p: p["UserId"] > 0
        )
        assert not runnable_over_logs(other)
