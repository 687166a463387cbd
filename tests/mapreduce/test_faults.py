"""Tests for the chaos framework: fault policies, retries, quarantine.

The paper's failure-handling claim (Section III-C.1) is that restart
plus a deterministic algebra equals exactly-once output; these tests
exercise the machinery that injects the failures and the machinery that
survives them.
"""

import pytest

from repro.mapreduce import (
    ChaosPolicy,
    Cluster,
    CostModel,
    DistributedFileSystem,
    FailureInjector,
    FaultPolicy,
    InjectedFault,
    MapReduceJob,
    MapReduceStage,
    StageExecutionError,
    StageKiller,
    key_by_columns,
    persist,
)
from repro.mapreduce.faults import (
    FS_READ,
    FS_WRITE,
    MAP,
    REDUCE,
    SHUFFLE,
    SITES,
)
from repro.runtime import RunContext


def count_reducer(idx, rows):
    counts = {}
    for r in rows:
        counts[r["k"]] = counts.get(r["k"], 0) + 1
    return [{"Time": 0, "k": k, "n": n} for k, n in sorted(counts.items())]


def count_stage(name="count", num_partitions=4):
    return MapReduceStage(name, key_by_columns(["k"]), count_reducer, num_partitions)


def sample_rows(n=24):
    return [{"Time": t, "k": "abcd"[t % 4]} for t in range(n)]


def make_cluster(rows, **settings):
    fs = DistributedFileSystem()
    fs.write("in", rows)
    return Cluster(
        fs=fs, cost_model=CostModel(num_machines=4), context=RunContext(**settings)
    )


def two_input_cluster(**settings):
    """``left`` and ``right``, two partitions each."""
    fs = DistributedFileSystem()
    fs.write("left", sample_rows(12), num_partitions=2)
    fs.write("right", sample_rows(8), num_partitions=2)
    return Cluster(
        fs=fs, cost_model=CostModel(num_machines=4), context=RunContext(**settings)
    )


def upper_key(row):
    return [{**row, "k": row["k"].upper()}]


class RecordingPolicy(FaultPolicy):
    """Injects nothing; remembers every ``(site, partition)`` drawn."""

    def __init__(self):
        super().__init__()
        self.draws = []

    def fault_for(self, site, stage, partition, attempt):
        self.draws.append((site, partition))
        return None


# a reduce attempt passes two fault sites (shuffle + reduce), so the
# restart budget must cover 2 * blacklist_after injections per partition
CHAOS_RESTARTS = 2 * ChaosPolicy().blacklist_after + 1


class TestChaosPolicy:
    def test_same_seed_same_schedule(self):
        def run(seed):
            policy = ChaosPolicy(seed=seed, rates=0.4)
            cluster = make_cluster(
                sample_rows(), fault_policy=policy, max_restarts=CHAOS_RESTARTS
            )
            out = cluster.run_stage(count_stage(), "in", "out")
            return out.all_rows(), policy.stats.injected

        rows_a, injected_a = run(5)
        rows_b, injected_b = run(5)
        assert rows_a == rows_b
        assert injected_a == injected_b

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_output_identical_to_fault_free(self, seed):
        rows = sample_rows(40)
        stages = [count_stage("a", 3), count_stage("b", 2)]
        job = MapReduceJob("job", stages)
        baseline = make_cluster(rows).run_job(job, "in").all_rows()

        policy = ChaosPolicy(seed=seed, rates=0.35)
        chaotic = make_cluster(
            rows, fault_policy=policy, max_restarts=CHAOS_RESTARTS
        ).run_job(job, "in")
        assert chaotic.all_rows() == baseline

    def test_validates_rates(self):
        with pytest.raises(ValueError, match="must be in"):
            ChaosPolicy(rates=1.5)
        with pytest.raises(ValueError, match="unknown fault site"):
            ChaosPolicy(rates={"teleport": 0.1})
        with pytest.raises(ValueError, match="transient_fraction"):
            ChaosPolicy(transient_fraction=-0.1)

    def test_per_site_rates(self):
        # faults only at the map site: the reduce loop never sees one
        policy = ChaosPolicy(seed=1, rates={MAP: 1.0}, transient_fraction=1.0)
        cluster = make_cluster(
            sample_rows(), fault_policy=policy, max_restarts=CHAOS_RESTARTS
        )
        cluster.run_stage(count_stage(), "in", "out")
        assert set(policy.stats.by_site) == {MAP}
        assert policy.stats.injected > 0

    def test_transient_blacklists_after_budget(self):
        # certainty-rate transient faults at reduce only: every partition
        # absorbs exactly blacklist_after injections, then succeeds
        policy = ChaosPolicy(seed=0, rates={REDUCE: 1.0}, transient_fraction=1.0)
        cluster = make_cluster(
            sample_rows(), fault_policy=policy, max_restarts=CHAOS_RESTARTS
        )
        cluster.run_stage(count_stage(num_partitions=3), "in", "out")
        assert policy.stats.injected == 3 * policy.blacklist_after
        assert policy.stats.blacklisted == 3
        assert policy.stats.transient == policy.stats.injected

    def test_permanent_blacklists_immediately(self):
        # a permanent fault is a dead machine: the retry is rescheduled,
        # so each (site, stage, partition) injects exactly once
        policy = ChaosPolicy(seed=0, rates={REDUCE: 1.0}, transient_fraction=0.0)
        cluster = make_cluster(
            sample_rows(), fault_policy=policy, max_restarts=CHAOS_RESTARTS
        )
        cluster.run_stage(count_stage(num_partitions=3), "in", "out")
        assert policy.stats.injected == 3
        assert policy.stats.permanent == 3

    def test_max_faults_caps_injection(self):
        policy = ChaosPolicy(seed=0, rates=1.0, max_faults=2)
        cluster = make_cluster(
            sample_rows(), fault_policy=policy, max_restarts=CHAOS_RESTARTS
        )
        cluster.run_stage(count_stage(), "in", "out")
        assert policy.stats.injected == 2

    def test_restart_budget_exhaustion_propagates(self):
        policy = ChaosPolicy(
            seed=0, rates={REDUCE: 1.0}, transient_fraction=1.0, blacklist_after=10
        )
        cluster = make_cluster(sample_rows(), fault_policy=policy, max_restarts=2)
        with pytest.raises(InjectedFault) as exc_info:
            cluster.run_stage(count_stage(), "in", "out")
        assert exc_info.value.site == REDUCE
        assert exc_info.value.transient

    def test_reports_charge_backoff(self):
        policy = ChaosPolicy(seed=0, rates={REDUCE: 1.0}, transient_fraction=1.0)
        cluster = make_cluster(
            sample_rows(), fault_policy=policy, max_restarts=CHAOS_RESTARTS
        )
        cluster.run_stage(count_stage(num_partitions=2), "in", "out")
        report = cluster.last_report.stages[0]
        assert report.restarted_partitions == 2 * policy.blacklist_after
        assert report.retry_backoff_seconds > 0
        assert (
            report.simulated_seconds(cluster.cost_model)
            >= report.retry_backoff_seconds
        )


class TestStageKiller:
    def test_kills_matching_stage(self):
        cluster = make_cluster(
            sample_rows(), fault_policy=StageKiller("count")
        )
        with pytest.raises(InjectedFault, match="stage killer"):
            cluster.run_stage(count_stage(), "in", "out")

    def test_ignores_other_stages(self):
        cluster = make_cluster(
            sample_rows(), fault_policy=StageKiller("elsewhere")
        )
        out = cluster.run_stage(count_stage(), "in", "out")
        assert out.num_rows > 0

    def test_later_stage_kill_leaves_earlier_output(self):
        job = MapReduceJob("job", [count_stage("first", 2), count_stage("second", 2)])
        cluster = make_cluster(sample_rows(), fault_policy=StageKiller("second"))
        with pytest.raises(InjectedFault):
            cluster.run_job(job, "in")
        assert cluster.fs.exists("job.stage0")


class TestFaultSites:
    @pytest.mark.parametrize("site", [FS_READ, FS_WRITE, SHUFFLE])
    def test_transient_fault_at_site_is_survived(self, site):
        policy = ChaosPolicy(seed=0, rates={site: 1.0}, transient_fraction=1.0)
        cluster = make_cluster(
            sample_rows(), fault_policy=policy, max_restarts=CHAOS_RESTARTS
        )
        baseline = make_cluster(sample_rows()).run_stage(
            count_stage(), "in", "out"
        )
        out = cluster.run_stage(count_stage(), "in", "out")
        assert out.all_rows() == baseline.all_rows()
        # blacklisting is per (site, stage, partition): FS faults hit one
        # whole-file key, shuffle faults one key per reduce partition
        keys = 4 if site == SHUFFLE else 1
        assert policy.stats.by_site == {site: keys * policy.blacklist_after}

    def test_map_tasks_are_numbered_across_inputs(self):
        # two inputs of two partitions each are four map tasks, in input
        # order then partition order, under one stage-wide FS read
        inputs = {"left": None, "right": upper_key}
        policy = RecordingPolicy()
        two_input_cluster(fault_policy=policy).run_stage(count_stage(), inputs, "out")
        assert [p for site, p in policy.draws if site == MAP] == [0, 1, 2, 3]
        assert [p for site, p in policy.draws if site == FS_READ] == [-1]

        baseline = two_input_cluster().run_stage(count_stage(), inputs, "out")
        assert {r["k"] for r in baseline.all_rows()} == set("abcdABCD")
        chaos = ChaosPolicy(seed=0, rates={MAP: 1.0}, transient_fraction=1.0)
        out = two_input_cluster(
            fault_policy=chaos, max_restarts=CHAOS_RESTARTS
        ).run_stage(count_stage(), inputs, "out")
        assert persist.dataset_sha256(out) == persist.dataset_sha256(baseline)
        assert out.partitions == baseline.partitions
        # no two tasks share a (site, stage, partition) key
        assert chaos.stats.by_site == {MAP: 4 * chaos.blacklist_after}

    def test_sites_constant_is_complete(self):
        assert set(SITES) == {MAP, SHUFFLE, REDUCE, FS_READ, FS_WRITE}

    def test_executor_sites_are_gone(self):
        for site in ("worker-kill", "task-transient", "reply-drop"):
            with pytest.raises(ValueError, match="unknown fault site"):
                ChaosPolicy(rates={site: 0.5})


class TestStageExecutionError:
    def test_wraps_real_reducer_failure_with_context(self):
        def broken(idx, rows):
            raise ValueError("user bug")

        cluster = make_cluster(sample_rows())
        stage = MapReduceStage("bad", key_by_columns(["k"]), broken, num_partitions=2)
        with pytest.raises(StageExecutionError) as exc_info:
            cluster.run_stage(stage, "in", "out")
        err = exc_info.value
        assert err.stage == "bad"
        assert 0 <= err.partition < 2
        assert err.attempt == 2  # one free retry before giving up
        assert err.rows_in > 0
        assert isinstance(err.__cause__, ValueError)
        assert "user bug" in str(err)

    def test_flaky_reducer_gets_one_free_retry(self):
        calls = {"n": 0}

        def flaky(idx, rows):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("only once")
            return count_reducer(idx, rows)

        cluster = make_cluster(sample_rows())
        stage = MapReduceStage("fl", key_by_columns(["k"]), flaky, num_partitions=1)
        out = cluster.run_stage(stage, "in", "out")
        assert out.num_rows > 0
        assert calls["n"] == 2

    def test_injected_faults_stay_injected(self):
        # InjectedFault must never be re-wrapped as StageExecutionError
        cluster = make_cluster(
            sample_rows(), fault_policy=StageKiller("count"), max_restarts=1
        )
        with pytest.raises(InjectedFault):
            cluster.run_stage(count_stage(), "in", "out")

    def test_injected_fault_raised_by_user_map_propagates(self):
        # the map body runs once, after its fault draws pass: an
        # InjectedFault from user code is neither retried nor
        # quarantined, as one from a reducer is not
        calls = []

        def mapper(row):
            calls.append(row)
            raise InjectedFault("raised by user code", site=MAP)

        cluster = make_cluster(sample_rows(), quarantine=True)
        stage = MapReduceStage("m", key_by_columns(["k"]), count_reducer, num_partitions=2)
        with pytest.raises(InjectedFault, match="user code"):
            cluster.run_stage(stage, {"in": mapper}, "out")
        assert len(calls) == 1


class TestQuarantine:
    def test_poison_row_is_bisected_out_of_reduce(self):
        rows = sample_rows(20) + [{"Time": 50, "k": "a", "poison": True}]

        def touchy(idx, rows):
            for r in rows:
                if r.get("poison"):
                    raise ValueError("cannot digest this row")
            return count_reducer(idx, rows)

        cluster = make_cluster(rows, quarantine=True)
        stage = MapReduceStage("t", key_by_columns(["k"]), touchy, num_partitions=2)
        out = cluster.run_stage(stage, "in", "t.out")
        clean = make_cluster(sample_rows(20)).run_stage(
            MapReduceStage("t", key_by_columns(["k"]), touchy, num_partitions=2),
            "in",
            "out",
        )
        assert out.all_rows() == clean.all_rows()
        assert len(cluster.last_quarantined) == 1
        record = cluster.last_quarantined[0]
        assert record["_site"] == REDUCE
        assert record["_stage"] == "t"
        assert record["_row"]["poison"] is True
        assert "cannot digest" in record["_error"]

    def test_quarantine_off_fails_the_stage(self):
        rows = sample_rows(8) + [{"Time": 50, "k": "a", "poison": True}]

        def touchy(idx, rows):
            for r in rows:
                if r.get("poison"):
                    raise ValueError("poison")
            return count_reducer(idx, rows)

        cluster = make_cluster(rows)
        stage = MapReduceStage("t", key_by_columns(["k"]), touchy, num_partitions=2)
        with pytest.raises(StageExecutionError):
            cluster.run_stage(stage, "in", "out")

    def test_map_exception_quarantines_the_row(self):
        def mapper(row):
            if row["k"] == "b":
                raise KeyError("bad row")
            return [row]

        cluster = make_cluster(sample_rows(12), quarantine=True)
        stage = MapReduceStage("m", key_by_columns(["k"]), count_reducer, num_partitions=2)
        out = cluster.run_stage(stage, {"in": mapper}, "out")
        assert all(r["k"] != "b" for r in out.all_rows())
        assert all(q["_site"] == MAP for q in cluster.last_quarantined)
        assert len(cluster.last_quarantined) == 3  # every third of 12 rows is "b"

    def test_map_dead_letter_names_its_task(self):
        # a map dead letter's _partition is the map task number, counted
        # across the inputs: right's second partition is task 3
        def mapper(row):
            if row["Time"] == 5:
                raise KeyError("bad row")
            return upper_key(row)

        cluster = two_input_cluster(quarantine=True)
        cluster.run_stage(count_stage(), {"left": None, "right": mapper}, "out")
        (record,) = cluster.last_quarantined
        assert (record["_site"], record["_partition"]) == (MAP, 3)
        assert record["_row"] == {"Time": 5, "k": "b"}

    def test_row_without_time_quarantines_instead_of_crashing_sort(self):
        rows = sample_rows(10) + [{"k": "a"}, {"Time": "noon", "k": "b"}]
        fs = DistributedFileSystem()
        fs.write("in", rows, require_time_column=False)
        cluster = Cluster(
            fs=fs,
            cost_model=CostModel(num_machines=2),
            context=RunContext(quarantine=True),
        )
        out = cluster.run_stage(count_stage(num_partitions=2), "in", "out")
        totals = {r["k"]: r["n"] for r in out.all_rows()}
        assert sum(totals.values()) == 10
        assert len(cluster.last_quarantined) == 2
        assert {q["_site"] for q in cluster.last_quarantined} == {"sort"}

    def test_quarantine_lands_in_dead_letter_dataset(self):
        rows = sample_rows(8) + [{"Time": 3, "k": "a", "poison": True}]

        def touchy(idx, rows):
            if any(r.get("poison") for r in rows):
                raise ValueError("poison")
            return count_reducer(idx, rows)

        cluster = make_cluster(rows, quarantine=True)
        stage = MapReduceStage("t", key_by_columns(["k"]), touchy, num_partitions=2)
        cluster.run_stage(stage, "in", "out")
        assert cluster.fs.exists("out.quarantine")
        assert cluster.fs.read("out.quarantine").num_rows == 1
        report = cluster.last_report.stages[0]
        assert report.quarantined_rows == 1

    def test_interaction_failure_is_not_silently_dropped(self):
        # a failure no single-row removal explains must still fail loudly
        def pair_hater(idx, rows):
            if len(rows) >= 2:
                raise ValueError("any two rows together fail")
            return []

        cluster = make_cluster(sample_rows(8), quarantine=True)
        stage = MapReduceStage(
            "p", key_by_columns(["k"]), pair_hater, num_partitions=1
        )
        with pytest.raises(StageExecutionError):
            cluster.run_stage(stage, "in", "out")


class TestClusterConfiguration:
    def test_legacy_injector_still_works(self):
        injector = FailureInjector(kill={("count", 0), ("count", 1)})
        cluster = make_cluster(sample_rows(), fault_policy=injector)
        baseline = make_cluster(sample_rows()).run_stage(count_stage(), "in", "out")
        out = cluster.run_stage(count_stage(), "in", "out")
        assert out.all_rows() == baseline.all_rows()
        assert injector.stats.injected == 2
        assert injector.stats.by_site == {REDUCE: 2}
        assert cluster.last_report.stages[0].restarted_partitions == 2

    def test_base_policy_never_injects(self):
        cluster = make_cluster(sample_rows(), fault_policy=FaultPolicy())
        out = cluster.run_stage(count_stage(), "in", "out")
        assert out.num_rows > 0

