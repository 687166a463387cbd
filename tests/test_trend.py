"""Bench trend harness (benchmarks/trend.py): history + best-known compare.

These run the script's functions directly on synthetic artifacts — no
benchmark execution — so they are fast and deterministic. The CLI-level
properties: the report is advisory (exit 0) unless ``--strict``, the
history file is append-only JSON lines, and best-known folds committed
baselines together with prior history entries.
"""

import importlib.util
import json
import os

import pytest

_TREND_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "trend.py",
)
_spec = importlib.util.spec_from_file_location("bench_trend", _TREND_PATH)
trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)


def _artifact(eps_by_query):
    return {
        "benchmark": "bench_smoke",
        "config": {"users": 10, "seed": 42},
        "queries": {
            name: {"events_per_second": eps}
            for name, eps in eps_by_query.items()
        },
    }


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    (baselines / "BENCH_pr1.json").write_text(
        json.dumps(_artifact({"q-a": 1000.0, "q-b": 500.0}))
    )
    (baselines / "BENCH_pr2.json").write_text(
        json.dumps(_artifact({"q-a": 1200.0, "q-b": 400.0}))
    )
    return tmp_path


def _run(workdir, doc, *extra):
    run_path = workdir / "BENCH_current.json"
    run_path.write_text(json.dumps(doc))
    return trend.main(
        [
            "--run",
            str(run_path),
            "--baselines",
            str(workdir / "baselines"),
            "--history",
            str(workdir / "history.jsonl"),
            *extra,
        ]
    )


class TestBestKnown:
    def test_max_across_baselines_and_history(self, workdir):
        baselines = [
            ("pr1", _artifact({"q-a": 1000.0})),
            ("pr2", _artifact({"q-a": 1200.0})),
        ]
        history = [{"git": "abc1234", "queries": {"q-a": {"events_per_second": 1500.0}}}]
        best = trend.best_known(baselines, history)
        assert best["q-a"] == (1500.0, "history:abc1234")

    def test_malformed_history_lines_skipped(self, workdir):
        path = workdir / "history.jsonl"
        path.write_text('not json\n{"git": "x", "queries": {}}\n')
        assert len(trend.load_history(str(path))) == 1


class TestReport:
    def test_steady_run_exits_zero_and_appends(self, workdir):
        rc = _run(workdir, _artifact({"q-a": 1150.0, "q-b": 450.0}))
        assert rc == 0
        history = trend.load_history(str(workdir / "history.jsonl"))
        assert len(history) == 1
        assert history[0]["queries"]["q-a"]["events_per_second"] == 1150.0

    def test_regression_is_advisory_by_default(self, workdir, capsys):
        rc = _run(workdir, _artifact({"q-a": 100.0, "q-b": 450.0}))
        assert rc == 0  # non-gating: the report flags it, the exit code doesn't
        assert "REGRESSION q-a" in capsys.readouterr().out

    def test_strict_gates_on_regression(self, workdir):
        rc = _run(workdir, _artifact({"q-a": 100.0, "q-b": 450.0}), "--strict")
        assert rc == 1

    def test_improvement_and_new_query_reported(self, workdir, capsys):
        rc = _run(workdir, _artifact({"q-a": 2000.0, "q-new": 50.0}))
        assert rc == 0
        out = capsys.readouterr().out
        assert "improvement q-a" in out
        assert "new query q-new" in out

    def test_history_feeds_next_comparison(self, workdir):
        _run(workdir, _artifact({"q-a": 2000.0}))  # new best, recorded
        rc = _run(workdir, _artifact({"q-a": 900.0}), "--strict")
        assert rc == 1  # 900 vs best-known 2000 from history: regression

    def test_no_append_leaves_history_untouched(self, workdir):
        rc = _run(workdir, _artifact({"q-a": 1150.0}), "--no-append")
        assert rc == 0
        assert not (workdir / "history.jsonl").exists()

    def test_json_report_shape(self, workdir, capsys):
        rc = _run(workdir, _artifact({"q-a": 100.0}), "--json")
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "bench-trend"
        assert doc["baselines"] == ["BENCH_pr1.json", "BENCH_pr2.json"]
        assert len(doc["regressions"]) == 1
        assert doc["regressions"][0]["query"] == "q-a"
        assert doc["regressions"][0]["best_source"] == "BENCH_pr2.json"

    def test_unreadable_run_artifact_exits_two(self, workdir, capsys):
        rc = trend.main(["--run", str(workdir / "missing.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err
