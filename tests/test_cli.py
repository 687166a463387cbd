"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.cli import main

from tests.test_persistence import DAMAGE, _largest_partition


def _tamper(dataset):
    victim = _largest_partition(dataset)
    victim.write_text(victim.read_text() + '{"Time": 7, "evil": true}\n')
    return victim


#: a partition that parses but no longer matches its recorded hash
TAMPER = {"partition-tampered": _tamper}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    directory = tmp_path_factory.mktemp("snap")
    rc = main(
        ["generate", "--users", "60", "--days", "1", "--seed", "7", "--out", str(directory)]
    )
    assert rc == 0
    return str(directory)


class TestGenerate:
    def test_writes_snapshot(self, snapshot, capsys):
        from repro.data.io import load_dataset

        dataset = load_dataset(snapshot)
        assert len(dataset.rows) > 100
        assert dataset.config.num_users == 60

    def test_deterministic(self, tmp_path, snapshot):
        from repro.data.io import load_dataset

        other = tmp_path / "snap2"
        main(["generate", "--users", "60", "--days", "1", "--seed", "7", "--out", str(other)])
        assert load_dataset(str(other)).rows == load_dataset(snapshot).rows


class TestSQL:
    def test_runs_query(self, snapshot, capsys):
        rc = main(
            [
                "sql",
                "SELECT COUNT(*) AS n FROM logs WHERE StreamId = 1 "
                "GROUP APPLY KwAdId WINDOW 6 HOURS",
                "--data",
                snapshot,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "result events" in out
        assert "'n'" in out

    def test_select_star(self, snapshot, capsys):
        rc = main(["sql", "SELECT * FROM logs", "--data", snapshot, "--limit", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "... " in out  # truncation marker


class TestTiMR:
    def test_runs_through_cluster(self, snapshot, capsys):
        rc = main(
            [
                "timr",
                "SELECT COUNT(*) AS n FROM logs WHERE StreamId = 1 "
                "GROUP APPLY KwAdId WINDOW 2 HOURS",
                "--data",
                snapshot,
                "--machines",
                "8",
                "--partitions",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fragment" in out
        assert "simulated" in out

    def test_temporal_partitioning_flag(self, snapshot, capsys):
        rc = main(
            [
                "timr",
                "SELECT COUNT(*) AS n FROM logs WINDOW 30 MINUTES",
                "--data",
                snapshot,
                "--span-width",
                "14400",
            ]
        )
        assert rc == 0


class TestBT:
    def test_kez_pipeline(self, snapshot, capsys):
        rc = main(["bt", "--data", snapshot, "--selector", "kez", "--z", "1.28"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bot elimination" in out
        assert "mean lift area" in out

    def test_stemmed_kepop(self, snapshot, capsys):
        rc = main(["bt", "--data", snapshot, "--selector", "kepop", "--stem"])
        assert rc == 0
        assert "stemmed-KE-pop" in capsys.readouterr().out


class TestExplain:
    def test_explains_plan(self, capsys):
        rc = main(
            [
                "explain",
                "SELECT COUNT(*) AS n FROM logs WHERE StreamId = 1 "
                "GROUP APPLY AdId WINDOW 6 HOURS",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PLAN" in out and "TIMR ANNOTATION" in out
        assert "AdId" in out

    def test_dot_output(self, capsys):
        rc = main(["explain", "SELECT * FROM logs", "--dot"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")


class TestErrorHandling:
    def test_parse_error_is_one_line(self, snapshot, capsys):
        rc = main(["sql", "SELECT COUNT( FROM logs", "--data", snapshot])
        assert rc == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "Traceback" not in err

    def test_missing_snapshot_dir(self, capsys):
        rc = main(["sql", "SELECT * FROM logs", "--data", "/nonexistent/dir"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage", sorted({**DAMAGE, **TAMPER}))
    def test_unreadable_snapshot_is_one_line(self, snapshot, tmp_path, capsys, damage):
        """A torn or tampered snapshot file is a one-line error naming the
        file, not a ``CorruptDatasetError`` traceback."""
        copy = tmp_path / "snap"
        shutil.copytree(snapshot, copy)
        victim = {**DAMAGE, **TAMPER}[damage](copy / "logs")
        rc = main(["sql", "SELECT * FROM logs", "--data", str(copy)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and victim.name in err


    @pytest.mark.parametrize("command, flag", [
        ("sql", "--limit"), ("timr", "--limit"), ("timr", "--machines"),
        ("timr", "--partitions"),
    ])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_a_count_flag_takes_a_positive_int(self, snapshot, capsys, command, flag, value):
        """``--limit -1`` printed all rows but the last, ``--machines 0``
        ended in a ``ZeroDivisionError`` and ``--partitions 0`` ran on one
        partition: each is a usage error now."""
        with pytest.raises(SystemExit) as exit_:
            main([command, CLEAN_SQL, "--data", snapshot, flag, value])
        assert exit_.value.code == 2
        assert f"argument {flag}: '{value}' is not a positive int" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--source-name", "other"], "query references source 'logs'"),
        (["SELECT Nope FROM logs"], "unknown column 'Nope'"),
    ])
    def test_an_unknown_source_or_column_is_one_line(self, snapshot, capsys, argv, named):
        """Both used to print a ``KeyError`` traceback and exit 1."""
        query = [CLEAN_SQL] if argv[0].startswith("--") else []
        rc = main(["sql", *query, *argv, "--data", snapshot])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err and "Traceback" not in err


BAD_SQL = (
    "SELECT COUNT(*) AS n FROM logs WHERE Bogus = 1 "
    "GROUP APPLY KwAdId WINDOW 6 HOURS"
)
CLEAN_SQL = (
    "SELECT COUNT(*) AS n FROM logs WHERE StreamId = 1 "
    "GROUP APPLY KwAdId WINDOW 6 HOURS"
)


class TestLint:
    def test_builtin_suite_is_clean(self, capsys):
        rc = main(["lint", "--builtin", "--no-plan"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "clean" in out

    def test_unknown_column_in_sql(self, capsys):
        rc = main(["lint", BAD_SQL, "--columns", "StreamId,UserId,KwAdId"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "schema.unknown-column" in out
        assert "^~~" in out  # caret-marked plan rendering

    def test_clean_sql_with_columns(self, capsys):
        rc = main(["lint", CLEAN_SQL, "--columns", "StreamId,UserId,KwAdId"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_sql_without_columns_cannot_check_schema(self, capsys):
        rc = main(["lint", BAD_SQL])
        assert rc == 0  # undeclared source: three-valued inference stays quiet

    def test_ignore_flag_suppresses_globally(self, capsys):
        rc = main(
            [
                "lint",
                BAD_SQL,
                "--columns",
                "StreamId,UserId,KwAdId",
                "--ignore",
                "schema.unknown-column",
            ]
        )
        assert rc == 0

    def test_python_file_with_lint_queries_hook(self, tmp_path, capsys):
        target = tmp_path / "plans.py"
        target.write_text(
            "from repro.temporal import Query\n"
            "def lint_queries():\n"
            "    q = Query.source('s', ('A',)).where(lambda p: p['B'] == 1)\n"
            "    return {'bad': q}\n"
        )
        rc = main(["lint", str(target), "--no-plan"])
        assert rc == 1
        assert "schema.unknown-column" in capsys.readouterr().out

    def test_python_file_with_module_level_queries(self, tmp_path, capsys):
        target = tmp_path / "plans.py"
        target.write_text(
            "from repro.temporal import Query\n"
            "clean = Query.source('s', ('A',)).where(lambda p: p['A'] == 1)\n"
        )
        rc = main(["lint", str(target)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_python_file_without_plans(self, tmp_path, capsys):
        target = tmp_path / "empty.py"
        target.write_text("x = 1\n")
        rc = main(["lint", str(target)])
        assert rc == 2
        assert "no plans" in capsys.readouterr().err

    def test_nothing_to_lint(self, capsys):
        rc = main(["lint"])
        assert rc == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_lint_parse_error(self, capsys):
        rc = main(["lint", "SELECT COUNT( FROM logs"])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err

    def test_unknown_rule_in_ignore_flag(self, capsys):
        rc = main(["lint", CLEAN_SQL, "--ignore", "bogus.not-a-rule"])
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err


class TestLintJson:
    def test_clean_query_report(self, capsys):
        rc = main(["lint", CLEAN_SQL, "--columns", "StreamId,UserId,KwAdId", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "lint"
        assert doc["errors"] == 0
        assert doc["exit_code"] == 0
        assert doc["targets"][0]["ok"] is True
        assert doc["targets"][0]["diagnostics"] == []

    def test_error_report_and_exit_code(self, capsys):
        rc = main(["lint", BAD_SQL, "--columns", "StreamId,UserId,KwAdId", "--json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] >= 1
        assert doc["exit_code"] == 1
        diag = doc["targets"][0]["diagnostics"][0]
        assert diag["rule"] == "schema.unknown-column"
        assert diag["severity"] == "error"
        assert "Bogus" in diag["message"]

    def test_json_output_is_the_whole_stdout(self, capsys):
        rc = main(["lint", "--builtin", "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        json.loads(out)  # nothing but the document on stdout
        assert json.loads(out)["plans"] >= 10

    def test_usage_errors_still_exit_2(self, capsys):
        rc = main(["lint", "--json"])
        assert rc == 2


class TestProfile:
    @pytest.fixture(scope="class")
    def profile_outputs(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("profile")
        trace = directory / "trace.json"
        metrics = directory / "metrics.jsonl"
        return str(trace), str(metrics)

    def test_writes_valid_chrome_trace_and_jsonl(
        self, profile_outputs, capsys
    ):
        trace, metrics = profile_outputs
        rc = main(
            [
                "profile",
                "--pipeline",
                "bt",
                "--users",
                "20",
                "--trace-out",
                trace,
                "--metrics-out",
                metrics,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "calibration" in out
        assert "trace events" in out
        assert "source rows decoded to events" in out

        with open(trace) as fp:
            doc = json.load(fp)
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        # the instants are named resolutions: the pipeline's keyed counts
        # that read events take their per-row loop, and say so
        instants = {(e["name"], e["args"]["resolution"]) for e in events if e["ph"] == "i"}
        assert instants == {("resolution", "keyed.row_loop")}
        complete = [e for e in events if e["ph"] == "X"]
        assert all(
            isinstance(e["ts"], (int, float)) and e["dur"] >= 0 for e in complete
        )
        # all three layers show up in one trace
        assert {e["cat"] for e in complete} >= {"engine", "cluster", "timr"}

        with open(metrics) as fp:
            lines = [json.loads(line) for line in fp]
        assert {l["type"] for l in lines} == {"span", "metric"}
        span_cats = {l["category"] for l in lines if l["type"] == "span"}
        assert span_cats >= {"engine", "cluster", "timr"}

    def test_json_summary(self, tmp_path, capsys):
        rc = main(
            [
                "profile",
                "--users",
                "20",
                "--json",
                "--trace-out",
                str(tmp_path / "t.json"),
                "--metrics-out",
                str(tmp_path / "m.jsonl"),
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "profile"
        assert doc["spans"] > 0
        assert set(doc["spans_by_category"]) >= {"engine", "cluster", "timr"}
        assert doc["calibration"]["fragments"]
        # each reducer hands its engine rows, decoded only where the
        # plan reads them as events: the keyed counts read none
        assert doc["engine_rows"] == {"input_events": 1734, "decoded_rows": 1285}

    def test_out_dir_collects_relative_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        rc = main(
            [
                "profile",
                "--users",
                "20",
                "--json",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_out"] == str(out_dir / "trace.json")
        assert doc["metrics_out"] == str(out_dir / "metrics.jsonl")
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "metrics.jsonl").exists()

    def test_removed_parallel_flags_are_usage_errors(self, capsys):
        for argv in (
            ["profile", "--parallel"],
            ["sql", "SELECT * FROM logs", "--data", ".", "--executor", "process"],
            ["timr", "SELECT * FROM logs", "--data", ".", "--workers", "2"],
            ["bt", "--data", ".", "--force-parallel"],
            ["chaos", "--worker-kill-rate", "0.5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv


class TestChaos:
    def test_full_suite_passes(self, tmp_path, capsys):
        rc = main(
            [
                "chaos",
                "--users",
                "25",
                "--days",
                "1",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "byte-identical" in out
        assert "killed mid-run" in out
        assert "chaos suite passed" in out

    def test_seed_changes_fault_schedule(self, tmp_path, capsys):
        def stats_line(seed):
            rc = main(
                [
                    "chaos",
                    "--users",
                    "25",
                    "--days",
                    "1",
                    "--seed",
                    str(seed),
                    "--checkpoint-dir",
                    str(tmp_path / f"s{seed}"),
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            return next(line for line in out.splitlines() if "chaos(" in line)

        assert stats_line(3) != stats_line(4)

    def test_json_report(self, tmp_path, capsys):
        rc = main(
            [
                "chaos",
                "--users",
                "25",
                "--days",
                "1",
                "--json",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        doc = json.loads(out)  # --json replaces all human output
        assert rc == 0
        assert doc["passed"] is True
        assert doc["exit_code"] == 0
        assert doc["chaos"]["byte_identical"] is True
        assert doc["resume"]["byte_identical"] is True
        assert doc["baseline"]["sha256"] == doc["chaos"]["sha256"]
        assert doc["resume"]["resumed_stages"] >= 1
        assert "executor_chaos" not in doc
        assert set(doc["timings"]) >= {
            "baseline_seconds",
            "chaos_seconds",
            "resume_seconds",
        }
