"""Tests for on-disk persistence of datasets and the simulated DFS."""

import pytest

from repro.data import GeneratorConfig, generate
from repro.data.io import load_dataset, save_dataset
from repro.mapreduce import DistributedFileSystem
from repro.mapreduce.persist import load_file, load_fs, save_file, save_fs


class TestFSPersistence:
    def test_roundtrip_single_dataset(self, tmp_path):
        fs = DistributedFileSystem()
        f = fs.write("logs", [{"Time": t, "v": f"x{t}"} for t in range(10)], num_partitions=3)
        save_file(f, str(tmp_path))
        loaded = load_file(str(tmp_path), "logs")
        assert loaded.num_partitions == 3
        assert loaded.all_rows() == f.all_rows()

    def test_roundtrip_whole_fs(self, tmp_path):
        fs = DistributedFileSystem()
        fs.write("a", [{"Time": 1, "x": 1}])
        fs.write("b", [{"Time": 2, "y": [1, 2]}])
        save_fs(fs, str(tmp_path))
        back = load_fs(str(tmp_path))
        assert back.list_files() == ["a", "b"]
        assert back.read("b").all_rows()[0]["y"] == [1, 2]

    def test_dotted_names(self, tmp_path):
        fs = DistributedFileSystem()
        fs.write("timr.frag0", [{"Time": 0, "_re": 5}])
        save_fs(fs, str(tmp_path))
        assert load_fs(str(tmp_path)).read("timr.frag0").num_rows == 1

    def test_missing_dataset_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_file(str(tmp_path), "nope")

    def test_empty_partitions_survive(self, tmp_path):
        fs = DistributedFileSystem()
        f = fs.write("thin", [{"Time": 0}], num_partitions=4)
        save_file(f, str(tmp_path))
        loaded = load_file(str(tmp_path), "thin")
        assert loaded.num_partitions == 4
        assert loaded.num_rows == 1

    def test_selective_load(self, tmp_path):
        fs = DistributedFileSystem()
        fs.write("keep", [{"Time": 0}])
        fs.write("skip", [{"Time": 0}])
        save_fs(fs, str(tmp_path))
        back = load_fs(str(tmp_path), names=["keep"])
        assert back.list_files() == ["keep"]


class TestDatasetSnapshots:
    def test_roundtrip(self, tmp_path):
        dataset = generate(GeneratorConfig(num_users=40, duration_days=1, seed=2))
        save_dataset(dataset, str(tmp_path / "snap"))
        back = load_dataset(str(tmp_path / "snap"))
        assert back.rows == dataset.rows
        assert back.config == dataset.config
        assert back.truth.bots == dataset.truth.bots
        assert back.truth.liked == dataset.truth.liked

    def test_loaded_dataset_usable_by_pipeline(self, tmp_path):
        from repro.bt import BTConfig
        from repro.bt.baselines import custom_bot_elimination

        dataset = generate(GeneratorConfig(num_users=40, duration_days=1, seed=2))
        save_dataset(dataset, str(tmp_path / "snap"))
        back = load_dataset(str(tmp_path / "snap"))
        assert custom_bot_elimination(back.rows, BTConfig()) == custom_bot_elimination(
            dataset.rows, BTConfig()
        )


def _largest_partition(dataset):
    return max(dataset.glob("part-*.jsonl"), key=lambda p: p.stat().st_size)


def _cut_mid_line(dataset):
    victim = _largest_partition(dataset)
    data = victim.read_bytes()
    victim.write_bytes(data[: data.rindex(b"\n", 0, -1) + 5])  # into the last line
    return victim


def _invalid_utf8(dataset):
    victim = _largest_partition(dataset)
    victim.write_bytes(victim.read_bytes() + b'{"v": "\xff\xfe"}\n')
    return victim


def _rewrite_meta(text):
    def damage(dataset):
        victim = dataset / "_meta.json"
        victim.write_text(text(victim.read_text()))
        return victim
    return damage


#: ways a persisted dataset's files become unreadable: each returns the file
DAMAGE = {
    "partition-cut-mid-line": _cut_mid_line,
    "partition-invalid-utf8": _invalid_utf8,
    "meta-unparsable": _rewrite_meta(lambda text: text[: len(text) // 2]),
    "meta-missing-keys": _rewrite_meta(lambda text: "{}"),
}


class TestCrashSafetyAndIntegrity:
    """The checkpoint/resume path leans on these guarantees."""

    def write_sample(self, tmp_path, name="d", num_partitions=3):
        fs = DistributedFileSystem()
        f = fs.write(
            name,
            [{"Time": t, "v": t * t} for t in range(12)],
            num_partitions=num_partitions,
        )
        save_file(f, str(tmp_path))
        return f

    def test_no_temp_files_left_behind(self, tmp_path):
        import glob

        self.write_sample(tmp_path)
        assert glob.glob(str(tmp_path / "**" / "*.tmp.*"), recursive=True) == []

    def test_tampered_partition_detected(self, tmp_path):
        from repro.mapreduce.persist import CorruptDatasetError

        self.write_sample(tmp_path)
        victim = next((tmp_path / "d").glob("part-*.jsonl"))
        victim.write_text(victim.read_text() + '{"Time": 7, "evil": true}\n')
        with pytest.raises(CorruptDatasetError, match="d"):
            load_file(str(tmp_path), "d")

    def test_truncated_partition_detected(self, tmp_path):
        from repro.mapreduce.persist import CorruptDatasetError

        self.write_sample(tmp_path)
        victim = next((tmp_path / "d").glob("part-*.jsonl"))
        lines = victim.read_text().splitlines(keepends=True)
        if not lines:
            pytest.skip("empty partition drawn")
        victim.write_text("".join(lines[:-1]))
        with pytest.raises(CorruptDatasetError):
            load_file(str(tmp_path), "d")

    @pytest.mark.parametrize("verify", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_unreadable_files_name_the_dataset_and_file(self, tmp_path, damage, verify):
        """A torn or undecodable partition, or ``_meta.json`` unparsable or
        missing its keys: :class:`CorruptDatasetError` naming the dataset
        and the file, not the parser's bare error."""
        from repro.mapreduce.persist import CorruptDatasetError

        self.write_sample(tmp_path)
        victim = DAMAGE[damage](tmp_path / "d")
        with pytest.raises(CorruptDatasetError, match=f"'d'.*{victim.name}"):
            load_file(str(tmp_path), "d", verify=verify)

    def test_verification_can_be_disabled(self, tmp_path):
        self.write_sample(tmp_path)
        victim = next((tmp_path / "d").glob("part-*.jsonl"))
        victim.write_text(victim.read_text() + '{"Time": 7, "evil": true}\n')
        loaded = load_file(str(tmp_path), "d", verify=False)
        assert any(r.get("evil") for r in loaded.all_rows())

    def test_dataset_sha256_roundtrip_stable(self, tmp_path):
        from repro.mapreduce.persist import dataset_sha256

        f = self.write_sample(tmp_path)
        loaded = load_file(str(tmp_path), "d")
        assert dataset_sha256(loaded) == dataset_sha256(f)

    def test_dataset_sha256_partition_order_sensitive(self):
        from repro.mapreduce.fs import DistributedFile
        from repro.mapreduce.persist import dataset_sha256

        a = DistributedFile("x", [[{"Time": 1}], [{"Time": 2}]])
        b = DistributedFile("x", [[{"Time": 2}], [{"Time": 1}]])
        assert dataset_sha256(a) != dataset_sha256(b)
