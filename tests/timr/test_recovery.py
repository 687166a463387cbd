"""Tests for job checkpoint/resume (the ReStore argument).

A TiMR job killed mid-run must resume from its manifest: completed
stages are restored from their checkpointed datasets (integrity- and
determinism-verified) and only the remainder recomputes.
"""

import glob
import os
import random
import re

import pytest

from repro.mapreduce import (
    Cluster,
    CostModel,
    DistributedFileSystem,
    InjectedFault,
    StageKiller,
)
from repro.runtime import RunContext
from repro.temporal import Query
from repro.timr import (
    JobManifest,
    ResumeError,
    StageCheckpoint,
    TiMR,
    load_manifest,
    manifest_path,
    plan_fingerprint,
    save_manifest,
)

from tests.test_persistence import DAMAGE


def make_logs(n=300, seed=13):
    rnd = random.Random(seed)
    return [
        {
            "Time": t,
            "UserId": f"u{rnd.randrange(12)}",
            "KwAdId": f"k{rnd.randrange(5)}",
        }
        for t in sorted(rnd.randrange(2000) for _ in range(n))
    ]


def two_stage_query():
    return (
        Query.source("logs", ("UserId", "KwAdId"))
        .exchange("UserId", "KwAdId")
        .group_apply(
            ["UserId", "KwAdId"], lambda g: g.window(200).count(into="c")
        )
        .exchange("UserId")
        .group_apply("UserId", lambda g: g.max("c", into="peak"))
    )


def make_timr(rows, **settings):
    fs = DistributedFileSystem()
    fs.write("logs", rows)
    cluster = Cluster(
        fs=fs, cost_model=CostModel(num_machines=4), context=RunContext(**settings)
    )
    return TiMR(cluster)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = JobManifest(
            job="j",
            fingerprint="abc",
            entries=[StageCheckpoint("j.s0", "s0", "deadbeef", 10, 4)],
        )
        save_manifest(manifest, str(tmp_path))
        back = load_manifest(str(tmp_path), "j")
        assert back == manifest

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_manifest(str(tmp_path), "nope") is None

    def test_path_is_per_job(self, tmp_path):
        assert manifest_path(str(tmp_path), "a") != manifest_path(str(tmp_path), "b")

    def test_fingerprint_stable_and_sensitive(self):
        rows = make_logs(60)
        frags_a = make_timr(rows).run(two_stage_query(), num_partitions=2).fragments
        frags_b = make_timr(rows).run(two_stage_query(), num_partitions=2).fragments
        assert plan_fingerprint(frags_a) == plan_fingerprint(frags_b)
        other = (
            Query.source("logs", ("UserId", "KwAdId"))
            .exchange("KwAdId")
            .group_apply("KwAdId", lambda g: g.window(200).count(into="c"))
        )
        frags_c = make_timr(rows).run(other, num_partitions=2).fragments
        assert plan_fingerprint(frags_a) != plan_fingerprint(frags_c)


class TestKillAndResume:
    def test_resume_skips_completed_stages(self, tmp_path):
        rows = make_logs()
        plain = make_timr(rows).run(two_stage_query(), num_partitions=4)
        final_stage = plain.fragments[-1].output_name

        killed = make_timr(
            rows, fault_policy=StageKiller(final_stage), checkpoint_dir=str(tmp_path)
        )
        with pytest.raises(InjectedFault):
            killed.run(two_stage_query(), num_partitions=4)
        # every stage before the killed one checkpointed
        manifest = load_manifest(str(tmp_path), "timr")
        assert len(manifest.entries) == len(plain.fragments) - 1

        resumed = make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
            two_stage_query(), num_partitions=4
        )
        assert resumed.resumed_stages == len(plain.fragments) - 1
        assert resumed.output_rows() == plain.output_rows()

    def test_resume_counts_zero_without_prior_checkpoint(self, tmp_path):
        rows = make_logs(80)
        result = make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
            two_stage_query(), num_partitions=2
        )
        assert result.resumed_stages == 0
        assert result.output_rows() == make_timr(rows).run(
            two_stage_query(), num_partitions=2
        ).output_rows()

    def test_full_checkpoint_resumes_everything(self, tmp_path):
        rows = make_logs(80)
        plain = make_timr(rows, checkpoint_dir=str(tmp_path)).run(
            two_stage_query(), num_partitions=2
        )
        resumed = make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
            two_stage_query(), num_partitions=2
        )
        assert resumed.resumed_stages == len(plain.fragments)
        assert resumed.output_rows() == plain.output_rows()

    def test_resume_requires_checkpoint_dir(self):
        timr = make_timr(make_logs(30), resume=True)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            timr.run(two_stage_query())


class TestResumeSafety:
    def test_foreign_plan_fingerprint_is_rejected(self, tmp_path):
        rows = make_logs(80)
        make_timr(rows, checkpoint_dir=str(tmp_path)).run(
            two_stage_query(), num_partitions=2
        )
        other = (
            Query.source("logs", ("UserId", "KwAdId"))
            .exchange("KwAdId")
            .group_apply("KwAdId", lambda g: g.window(100).count(into="c"))
        )
        with pytest.raises(ResumeError, match="different plan.*different datasets or keys"):
            make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
                other, num_partitions=2
            )

    def test_changed_reducer_fails_the_fingerprint_check(self, tmp_path):
        """The skeleton (datasets and keys) of the two plans is equal and
        only the *last* stage's code differs, so the replay re-hash of
        the last checkpointed stage cannot see it: the code half of the
        fingerprint is what refuses — with verification on or off."""

        def query(floor):
            return (
                Query.source("logs", ("UserId", "KwAdId"))
                .exchange("UserId", "KwAdId")
                .group_apply(["UserId", "KwAdId"], lambda g: g.window(200).count(into="c"))
                .exchange("UserId")
                .where(lambda p, _f=floor: p["c"] >= _f)
                .group_apply("UserId", lambda g: g.max("c", into="peak"))
            )

        rows = make_logs(80)
        plain = make_timr(rows).run(query(1), num_partitions=2)
        skeleton = [(f.output_name, f.input_names, f.key) for f in plain.fragments]
        other = make_timr(rows).run(query(2), num_partitions=2)
        assert skeleton == [(f.output_name, f.input_names, f.key) for f in other.fragments]
        assert plan_fingerprint(plain.fragments) != plan_fingerprint(other.fragments)

        killer = StageKiller(plain.fragments[-1].output_name)
        with pytest.raises(InjectedFault):
            make_timr(rows, fault_policy=killer, checkpoint_dir=str(tmp_path)).run(
                query(1), num_partitions=2
            )
        for verify in (True, False):
            # the message says which half differed, and what can move it
            with pytest.raises(ResumeError, match="different plan.*different code.*Python version"):
                make_timr(
                    rows, checkpoint_dir=str(tmp_path), resume=True, verify_replay=verify
                ).run(query(2), num_partitions=2)
        resumed = make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
            query(1), num_partitions=2
        )
        assert resumed.resumed_stages == 1
        assert resumed.output_rows() == plain.output_rows()

    def test_unfingerprintable_plan_still_resumes_on_its_skeleton(self, tmp_path):
        import threading

        lock = threading.Lock()

        def guarded(p):
            with lock:
                return True

        def query():
            return two_stage_query().where(guarded)

        rows = make_logs(80)
        plain = make_timr(rows, checkpoint_dir=str(tmp_path)).run(
            query(), num_partitions=2, validate=False
        )
        assert plain.resolutions["timr.reuse_refused"]["count"] == 1
        resumed = make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
            query(), num_partitions=2, validate=False
        )
        assert resumed.resumed_stages == len(plain.fragments)
        assert resumed.output_rows() == plain.output_rows()

    def test_corrupt_checkpoint_is_rejected(self, tmp_path):
        rows = make_logs(80)
        make_timr(rows, checkpoint_dir=str(tmp_path)).run(
            two_stage_query(), num_partitions=2
        )
        manifest = load_manifest(str(tmp_path), "timr")
        victim = manifest.entries[0].dataset
        part_files = sorted(
            glob.glob(os.path.join(str(tmp_path), victim, "part-*.jsonl"))
        )
        assert part_files
        with open(part_files[0], "a", encoding="utf-8") as f:
            f.write('{"Time": 999999, "smuggled": true}\n')
        with pytest.raises(ResumeError, match="missing or corrupt"):
            make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
                two_stage_query(), num_partitions=2
            )

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_unreadable_checkpoint_files_are_a_resume_error(self, tmp_path, damage):
        """A checkpointed dataset whose partition or ``_meta.json`` cannot
        be read refuses the resume with a :class:`ResumeError` naming the
        dataset and the file, not the parser's bare error."""
        rows = make_logs(80)
        make_timr(rows, checkpoint_dir=str(tmp_path)).run(
            two_stage_query(), num_partitions=2
        )
        dataset = load_manifest(str(tmp_path), "timr").entries[0].dataset
        victim = DAMAGE[damage](tmp_path / dataset)
        with pytest.raises(ResumeError, match=f"missing or corrupt.*'{dataset}'.*{victim.name}"):
            make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
                two_stage_query(), num_partitions=2
            )

    def test_unparsable_manifest_is_a_resume_error(self, tmp_path):
        rows = make_logs(80)
        make_timr(rows, checkpoint_dir=str(tmp_path)).run(
            two_stage_query(), num_partitions=2
        )
        path = manifest_path(str(tmp_path), "timr")
        with open(path, "r+", encoding="utf-8") as f:
            f.truncate(len(f.read()) // 2)
        with pytest.raises(ResumeError, match=f"manifest {re.escape(path)} cannot be read"):
            load_manifest(str(tmp_path), "timr")
        with pytest.raises(ResumeError, match="manifest .* cannot be read"):
            make_timr(rows, checkpoint_dir=str(tmp_path), resume=True).run(
                two_stage_query(), num_partitions=2
            )

    def test_changed_input_fails_replay_verification(self, tmp_path):
        rows = make_logs(80)
        plain = make_timr(rows).run(two_stage_query(), num_partitions=2)
        # checkpoint only the first stage (the job dies at the second)
        killer = StageKiller(plain.fragments[-1].output_name)
        with pytest.raises(InjectedFault):
            make_timr(rows, fault_policy=killer, checkpoint_dir=str(tmp_path)).run(
                two_stage_query(), num_partitions=2
            )
        # same plan, different input data: the checkpoint restores and
        # integrity-verifies fine, but replaying the checkpointed first
        # stage over the new input hashes differently
        changed = make_logs(80, seed=99)
        with pytest.raises(ResumeError, match="not .*deterministic|different"):
            make_timr(changed, checkpoint_dir=str(tmp_path), resume=True).run(
                two_stage_query(), num_partitions=2
            )

    def test_replay_verification_can_be_skipped(self, tmp_path):
        rows = make_logs(80)
        plain = make_timr(rows).run(two_stage_query(), num_partitions=2)
        killer = StageKiller(plain.fragments[-1].output_name)
        with pytest.raises(InjectedFault):
            make_timr(rows, fault_policy=killer, checkpoint_dir=str(tmp_path)).run(
                two_stage_query(), num_partitions=2
            )
        changed = make_logs(80, seed=99)
        resumed = make_timr(
            changed, checkpoint_dir=str(tmp_path), resume=True, verify_replay=False
        ).run(two_stage_query(), num_partitions=2)
        # with verification off the stale checkpoint is trusted as-is,
        # so the remainder computes over the *old* first-stage output
        assert resumed.resumed_stages == len(plain.fragments) - 1
        assert resumed.output_rows() == plain.output_rows()
