"""A fragment that already ran on this TiMR is served, not recomputed.

The key is a code-aware fingerprint (``repro.timr.fingerprint``): plan
parameters, bytecode, defaults, closure values, referenced globals, the
partitioning, and the input *file objects*. These tests pin what the key
is sensitive to, that a served chain is byte-identical to a recomputed
one, what is never stored or served, and — as exact counts — how many
stages the benchmark's six-job BT chain runs.
"""

import functools
import random
import threading

import pytest

from repro.bt import queries as bt_queries
from repro.bt.examples import assemble_examples
from repro.bt.incremental import incremental_model_query
from repro.bt.queries import (
    UNIFIED_COLUMNS,
    bot_elimination_query,
    feature_selection_query,
    labeled_activity_query,
    training_data_query,
)
from repro.bt.schema import BTConfig
from repro.bt.scoring import model_generation_query, scoring_query
from repro.mapreduce import Cluster, CostModel, DistributedFileSystem, persist
from repro.runtime import RunContext
from repro.temporal import Query
from repro.temporal.operators import AggSpec
from repro.temporal.time import days, hours
from repro.timr import Statistics, TiMR, annotate_plan, load_manifest, make_fragments
from repro.timr.compile import fold_stateless_fragments
from repro.timr.fingerprint import JobFingerprints, PlanHasher, Unfingerprintable
from repro.timr.runner import _has_exchanges

CFG = BTConfig(min_support=2, z_threshold=1.0)
CLEAN = Query.source("clean", UNIFIED_COLUMNS)


def stage_keys(query, job="j", fs=None, num_partitions=4):
    """{stage output name: fingerprint} of a job, as ``TiMR.run`` keys it."""
    if fs is None:
        fs = DistributedFileSystem()
        fs.write("clean", [{"Time": 0}])
        fs.write("logs", [{"Time": 0}])
    plan = query.to_plan()
    if not _has_exchanges(plan):
        plan = annotate_plan(plan, Statistics(num_machines=8)).plan
    every = make_fragments(plan, job)
    stages, _ = fold_stateless_fragments(every)
    keys = JobFingerprints(every, stages, fs)
    out = {
        f.output_name: keys.of(f, num_partitions if f.key else 1, None) for f in stages
    }
    assert not keys.refusals, keys.refusals
    return out


def counted(*, threshold=3, window=200, spec=None, key="UserId", default=1):
    """A two-stage job with one knob per thing the key must see."""
    spec = spec or AggSpec("count", "c")

    def over(limit):
        return lambda p: p["c"] > limit  # closure value

    return (
        Query.source("logs", ("UserId", "KwAdId"))
        .exchange(*([key] if isinstance(key, str) else key))
        .group_apply(["UserId", "KwAdId"], lambda g: g.window(window).aggregate(spec))
        .where(over(threshold))
        .where(lambda p, _d=default: p["c"] >= _d)
        .exchange("KwAdId")
        .group_apply("KwAdId", lambda g: g.count(into="n"))
    )


# -- (a) what the fingerprint sees ---------------------------------------------


def test_the_two_builders_train_fragments_are_equal():
    fs = DistributedFileSystem()
    fs.write("clean", [{"Time": 0}])
    kez = stage_keys(feature_selection_query(CLEAN, CFG, days(3)), "kez", fs)
    train = stage_keys(training_data_query(CLEAN, CFG), "train", fs)
    assert train["train.out"] == kez["kez.frag0"]
    assert len(set(kez.values())) == len(kez) == 3
    # names alone are not identity: the same name rewritten is another file
    fs.write("clean", [{"Time": 0}])
    again = stage_keys(training_data_query(CLEAN, CFG), "train", fs)
    assert again["train.out"] != train["train.out"]


def test_equal_plans_built_twice_are_equal_and_job_names_do_not_matter():
    fs = DistributedFileSystem()
    fs.write("logs", [{"Time": 0}])
    a = stage_keys(counted(), "a", fs)
    b = stage_keys(counted(), "b", fs)
    assert sorted(a.values()) == sorted(b.values())
    assert a["a.out"] == b["b.out"]


@pytest.mark.parametrize(
    "change",
    [
        {"threshold": 4},  # closure value
        {"default": 2},  # default argument
        {"window": 300},  # window size
        {"spec": AggSpec("sum", "c", "KwAdId")},  # AggSpec
        {"key": ("UserId", "KwAdId")},  # partitioning key
    ],
    ids=lambda c: next(iter(c)),
)
def test_each_parameter_changes_the_fingerprint(change):
    fs = DistributedFileSystem()
    fs.write("logs", [{"Time": 0}])
    base = stage_keys(counted(), fs=fs)
    changed = stage_keys(counted(**change), fs=fs)
    assert base["j.frag0"] != changed["j.frag0"]
    # Merkle: whatever reads the changed fragment changes with it
    assert base["j.out"] != changed["j.out"]


def test_constant_and_num_partitions_change_the_fingerprint():
    fs = DistributedFileSystem()
    fs.write("logs", [{"Time": 0}])
    src = Query.source("logs", ("UserId",)).exchange("UserId")
    one = src.where(lambda p: p["UserId"] != "u1").group_apply("UserId", lambda g: g.count(into="n"))
    two = src.where(lambda p: p["UserId"] != "u2").group_apply("UserId", lambda g: g.count(into="n"))
    assert stage_keys(one, fs=fs) != stage_keys(two, fs=fs)
    assert stage_keys(one, fs=fs) == stage_keys(one, fs=fs)
    assert stage_keys(one, fs=fs, num_partitions=2) != stage_keys(one, fs=fs, num_partitions=4)


def test_config_default_and_referenced_helper_body_change_it(monkeypatch):
    fs = DistributedFileSystem()
    fs.write("clean", [{"Time": 0}])
    base = stage_keys(feature_selection_query(CLEAN, CFG, days(3)), "kez", fs)
    # `_s=cfg.min_support` is a default of the support filter in kez.out
    other = BTConfig(min_support=3, z_threshold=1.0)
    support = stage_keys(feature_selection_query(CLEAN, other, days(3)), "kez", fs)
    assert support["kez.frag0"] == base["kez.frag0"]
    assert support["kez.out"] != base["kez.out"]

    def keyword_z_score(clicks_with, impr_with, total_clicks, total_impr):
        return 0.0

    monkeypatch.setattr(bt_queries, "keyword_z_score", keyword_z_score)
    helper = stage_keys(feature_selection_query(CLEAN, CFG, days(3)), "kez", fs)
    assert helper["kez.frag0"] == base["kez.frag0"]
    assert helper["kez.out"] != base["kez.out"]


def test_impure_code_and_call_cycles():
    as_global = Query.source("s").where(lambda p: random.random() < 0.5).to_plan()
    with pytest.raises(Unfingerprintable, match="WhereNode.*reads random.random"):
        PlanHasher().plan(as_global)
    module, draw = random, random.random
    for captured, why in [
        (lambda p: module.random() < 0.5, "reaches random"),
        (lambda p: draw() < 0.5, "cannot serialise Random"),  # bound to the generator
    ]:
        with pytest.raises(Unfingerprintable, match=why):
            PlanHasher().plan(Query.source("s").where(captured).to_plan())

    def even(n):
        return n == 0 or odd(n - 1)

    def odd(n):
        return n != 0 and even(n - 1)

    cyclic = Query.source("s").where(lambda p: even(p["n"])).to_plan()
    assert PlanHasher().plan(cyclic) == PlanHasher().plan(cyclic)


def test_decorated_functions_and_local_classes_refuse_or_differ():
    """A wrapper's key must hold what it wraps: ``functools.wraps`` hides
    that from the analyzer's helpers (they follow ``__wrapped__``), so it
    refuses; an undecorated wrapper holds it as a closure value."""

    def logged(fn):
        @functools.wraps(fn)
        def wrapper(p):
            return fn(p)

        return wrapper

    def plain(fn):
        return lambda p: fn(p)

    def over(limit):
        return lambda p: p["x"] > limit

    def key(predicate):
        return PlanHasher().plan(Query.source("s").where(predicate).to_plan())

    with pytest.raises(Unfingerprintable, match="WhereNode.*<lambda> is a decorated function"):
        key(logged(over(1)))
    # reached through a closure or a default, not only at the top
    with pytest.raises(Unfingerprintable, match="decorated"):
        key(plain(logged(over(1))))
    with pytest.raises(Unfingerprintable, match="decorated"):
        key(lambda p, _f=logged(over(1)): _f(p))
    assert key(plain(over(1))) == key(plain(over(1)))
    assert key(plain(over(1))) != key(plain(over(2)))

    def make(threshold):
        class Above:
            def __call__(self, p):
                return p["x"] > threshold

        return Above

    for th in (1, 2):
        cls = make(th)
        with pytest.raises(Unfingerprintable, match="Above has no global name"):
            key(lambda p: cls()(p))
    assert key(lambda p: AggSpec("count", "c")) == key(lambda p: AggSpec("count", "c"))


def test_a_decorated_predicate_always_runs():
    def logged(fn):
        return functools.wraps(fn)(lambda p: fn(p))

    def plan(limit):
        keep = logged(lambda p: int(p["UserId"][1:]) > limit)
        return (
            Query.source("logs", ("UserId", "KwAdId"))
            .where(keep, label="logged-filter")
            .group_apply("UserId", lambda g: g.count(into="n"))
        )

    cluster = Cluster(fs=logs_fs(), cost_model=CostModel(num_machines=2))
    calls = run_stage_calls(cluster)
    timr = TiMR(cluster)
    one = timr.run(plan(1), job_name="a")
    two = timr.run(plan(2), job_name="b")
    assert len(calls) == 2 and one.reused_stages == two.reused_stages == 0
    assert "logged-filter" in two.resolutions["timr.reuse_refused"]["reason"]
    assert len(one.output_rows()) > len(two.output_rows()) > 0


def unserialisable_plan():
    lock = threading.Lock()

    def guarded(p):
        with lock:
            return p["UserId"] != "nobody"

    return (
        Query.source("logs", ("UserId", "KwAdId"))
        .where(guarded, label="guarded-filter")
        .group_apply("UserId", lambda g: g.count(into="n"))
    )


def logs_fs(n=120):
    fs = DistributedFileSystem()
    fs.write(
        "logs",
        [{"Time": t, "UserId": f"u{t % 7}", "KwAdId": f"k{t % 3}"} for t in range(n)],
    )
    return fs


def run_stage_calls(cluster):
    """Patch ``cluster.run_stage`` to count calls; returns the counter."""
    calls = []
    original = cluster.run_stage

    def counting(stage, *args, **kwargs):
        calls.append(stage.name)
        return original(stage, *args, **kwargs)

    cluster.run_stage = counting
    return calls


def test_unserialisable_capture_refuses_by_name_and_always_runs():
    cluster = Cluster(fs=logs_fs(), cost_model=CostModel(num_machines=2))
    calls = run_stage_calls(cluster)
    timr = TiMR(cluster)
    for job in ("a", "b"):
        result = timr.run(unserialisable_plan(), job_name=job, validate=False)
        assert result.reused_stages == 0
        refused = result.resolutions["timr.reuse_refused"]
        assert refused["count"] == 1
        assert "guarded-filter" in refused["reason"] and "lock" in refused["reason"]
        assert "timr.fragment_reused" not in result.resolutions
    assert len(calls) == 2 and not timr._store


# -- (b) served ≡ recomputed, over the benchmark's chain -----------------------


def bt_plans():
    model_cfg = BTConfig(model_window=days(2), model_hop=hours(12))
    logs = Query.source("logs", UNIFIED_COLUMNS)
    examples = Query.source("examples", ("UserId", "AdId", "y", "Features"))
    return {
        "clean": bot_elimination_query(logs, CFG),
        "kez": feature_selection_query(CLEAN, CFG, days(3)),
        "act": labeled_activity_query(CLEAN, CFG),
        "train": training_data_query(CLEAN, CFG),
        "score": scoring_query(examples, model_generation_query(examples, model_cfg)),
        "online": incremental_model_query(examples),
    }


def bt_chain(rows, plans, timr_for):
    """benchmarks/e2e's six-job chain; ``timr_for(fs)`` per job."""
    fs = DistributedFileSystem()
    fs.write("logs", rows)
    jobs, calls = {}, {}

    def job(name):
        timr = timr_for(fs)
        counter = run_stage_calls(timr.cluster)
        before = len(counter)
        jobs[name] = timr.run(plans[name], job_name=name, num_partitions=4)
        calls[name] = len(counter) - before
        return jobs[name].output_rows()

    fs.write("clean", job("clean"))
    selected = {(r["AdId"], r["Keyword"]) for r in job("kez")}
    fs.write(
        "examples",
        [
            {
                "Time": ex.time, "UserId": ex.user, "AdId": ex.ad, "y": ex.y,
                "Features": {k: v for k, v in ex.features.items() if (ex.ad, k) in selected},
            }
            for ex in assemble_examples(job("act"), job("train"))
        ],
    )
    job("score")
    job("online")
    return fs, jobs, calls


def test_chain_on_one_timr_equals_six_fresh_timrs(small_dataset):
    plans = bt_plans()

    def fresh(fs):
        return TiMR(Cluster(fs=fs, cost_model=CostModel(num_machines=8)))

    shared = []

    def one(fs):
        if not shared:
            shared.append(fresh(fs))
        shared[0].cluster.__dict__.pop("run_stage", None)  # one counter per job
        return shared[0]

    # twice over the same plan objects: the second pass finds the nodes
    # already run (and stamped with the Dataflow's memo), as the
    # benchmark's later passes do
    for _ in range(2):
        del shared[:]
        fs_one, jobs, calls = bt_chain(small_dataset.rows, plans, one)
        # the gate: 7 run_stage calls (8 with train recomputed), train
        # served from kez.frag0, nothing else served, nothing refused
        assert calls == {"clean": 1, "kez": 3, "act": 1, "train": 0, "score": 1, "online": 1}
        assert {n: r.reused_stages for n, r in jobs.items() if r.reused_stages} == {"train": 1}
        assert all("timr.reuse_refused" not in r.resolutions for r in jobs.values())
        reused = jobs["train"].resolutions["timr.fragment_reused"]
        assert reused["count"] == 1 and "train.out (= kez.frag0)" in reused["reason"]
        assert jobs["train"].report.stages == [] and len(jobs["train"].stages) == 1

    fs_six, fresh_jobs, fresh_calls = bt_chain(small_dataset.rows, plans, fresh)
    assert sum(fresh_calls.values()) == 8
    assert not any(r.reused_stages for r in fresh_jobs.values())
    assert fs_one.list_files() == fs_six.list_files()
    for name in fs_one.list_files():
        assert persist.dataset_sha256(fs_one.read(name)) == persist.dataset_sha256(
            fs_six.read(name)
        ), name
    # the served dataset is published under its own name
    assert fs_one.read("train.out").name == "train.out"


# -- (c) what is a miss, what is never stored ----------------------------------


def test_rewriting_or_deleting_an_input_is_a_miss():
    fs = logs_fs()
    cluster = Cluster(fs=fs, cost_model=CostModel(num_machines=2))
    calls = run_stage_calls(cluster)
    timr = TiMR(cluster)
    first = timr.run(counted(), job_name="a", num_partitions=2)
    assert len(calls) == 2
    served = timr.run(counted(), job_name="b", num_partitions=2)
    assert served.reused_stages == 2 and len(calls) == 2
    assert served.output_rows() == first.output_rows()

    fs.write("logs", fs.read("logs").all_rows()[:-1])  # same name, another file
    rewritten = timr.run(counted(), job_name="c", num_partitions=2)
    assert rewritten.reused_stages == 0 and len(calls) == 4
    assert rewritten.output_rows() != first.output_rows()

    fs.delete("logs")
    with pytest.raises(KeyError, match="no dataset named 'logs'"):
        timr.run(counted(), job_name="d", num_partitions=2)


def test_the_store_holds_nothing_the_file_system_let_go_of():
    fs = logs_fs()
    cluster = Cluster(fs=fs, cost_model=CostModel(num_machines=2))
    calls = run_stage_calls(cluster)
    timr = TiMR(cluster)
    first = timr.run(counted(), job_name="a", num_partitions=2)
    assert {f.name for f in timr._store.values()} == {"a.frag0", "a.out"}
    fs.delete("a.frag0")
    fs.write_partitioned("a.out", first.output.partitions)  # same rows, another object
    again = timr.run(counted(), job_name="b", num_partitions=2)
    assert again.reused_stages == 0 and len(calls) == 4
    assert {f.name for f in timr._store.values()} == {"b.frag0", "b.out"}
    # pruned as a job starts: what the last job overwrote is still there,
    # the generations before it are not
    for n in range(3):
        fs.write("logs", fs.read("logs").all_rows()[:-1])
        timr.run(counted(), job_name="b", num_partitions=2)
    assert len(timr._store) == 4 and len(calls) == 10


def test_a_file_serial_is_never_handed_out_again():
    fs = DistributedFileSystem()
    seen = set()
    for _ in range(50):  # each object is freed before the next is made
        seen.add(fs.write("logs", [{"Time": 0}]).serial)
    assert len(seen) == 50


def test_a_stage_that_quarantined_rows_is_neither_stored_nor_served():
    fs = logs_fs()
    fs.write("logs", fs.read("logs").all_rows() + [{"Time": 500, "KwAdId": "k0"}])
    cluster = Cluster(
        fs=fs, cost_model=CostModel(num_machines=2), context=RunContext(quarantine=True)
    )
    calls = run_stage_calls(cluster)
    timr = TiMR(cluster)
    for job in ("a", "b"):
        result = timr.run(counted(), job_name=job, num_partitions=2, validate=False)
        assert result.quarantined_rows == 1 and fs.exists(f"{job}.quarantine")
        # the poisoned first stage ran again; the clean second one was served
        assert result.reused_stages == (0 if job == "a" else 1)
    assert calls == ["timr.a.frag0", "timr.a.out", "timr.b.frag0"]


def test_reuse_under_checkpoint_dir_checkpoints_and_resume_verifies(tmp_path):
    fs = logs_fs()
    checkpointed = RunContext(checkpoint_dir=str(tmp_path))
    timr = TiMR(
        Cluster(fs=fs, cost_model=CostModel(num_machines=2), context=checkpointed)
    )
    first = timr.run(counted(), job_name="a", num_partitions=2)
    served = timr.run(counted(), job_name="b", num_partitions=2)
    assert served.reused_stages == 2
    manifest = load_manifest(str(tmp_path), "b")
    assert [e.dataset for e in manifest.entries] == ["b.frag0", "b.out"]
    assert manifest.entries[-1].sha256 == persist.dataset_sha256(first.output)

    cluster = Cluster(
        fs=logs_fs(),
        cost_model=CostModel(num_machines=2),
        context=checkpointed.derive(resume=True, verify_replay=True),
    )
    calls = run_stage_calls(cluster)
    resumed = TiMR(cluster).run(counted(), job_name="b", num_partitions=2)
    assert resumed.resumed_stages == 2 and resumed.reused_stages == 0
    assert calls == ["timr.b.out"]  # the replay check ran the stage, unserved
    assert resumed.output_rows() == first.output_rows()


# -- observability ---------------------------------------------------------------


def test_tracer_counts_reuse_beside_resumed_stages():
    from repro.obs import Tracer

    tracer = Tracer()
    cluster = Cluster(
        fs=logs_fs(), cost_model=CostModel(num_machines=2),
        context=RunContext(tracer=tracer),
    )
    timr = TiMR(cluster)
    timr.run(counted(), job_name="a", num_partitions=2)
    timr.run(counted(), job_name="b", num_partitions=2)
    timr.run(unserialisable_plan(), job_name="c", validate=False)
    counter = tracer.metrics.counter
    assert counter("timr.fragment_reused", job="b").value == 2
    assert counter("timr.reuse_refused", job="c").value == 1
    assert counter("timr.fragment_reused", job="a").value == 0
    assert counter("timr.resumed_stages", job="b").value == 0
    resolved = [s for s in tracer.finished() if s.name == "resolution"]
    assert sorted(s.attrs["resolution"] for s in resolved) == [
        "timr.fragment_reused", "timr.reuse_refused",
    ]

