"""Self-test of the benchmark harness, at ``--size smoke``.

Run explicitly (tier-1 ``testpaths`` does not include it)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quiet(*_args):
    pass


def child_run(workload: str, trace: int) -> dict:
    """One smoke run as the driver makes it: a fresh process, the
    result on the last line of standard output."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout
    lines = child.stdout.strip().splitlines()
    return {
        "result": json.loads(lines[-1]),
        "printed": {
            parts[1]: parts[3]
            for parts in (line.split() for line in lines)
            if parts[0] == "metric"
        },
        "digests": set(re.findall(r"digest ([0-9a-f]{12})", child.stdout)),
    }


@pytest.fixture(scope="module")
def smoke():
    """Every workload once end to end and once traced."""
    return {(w, t): child_run(w, t) for w in NAMES for t in (0, 1)}


@pytest.fixture(scope="module")
def traced_in_process(tmp_path_factory):
    """A second traced smoke run of every workload, in this process,
    keeping the recorder."""
    out = tmp_path_factory.mktemp("spans")
    expected = run.load_expected()
    runs = {}
    for name in NAMES:
        runs[name] = run.traced_run(
            WORKLOADS[name], 0, SIZES["smoke"][name], out / f"{name}.json",
            expected[f"smoke/{name}"], quiet,
        )
        assert tracing.installed() == []
    return runs


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_PATTERN.fullmatch(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        SPEC["end_to_end"][0].items()
    )
    assert set(WORKLOADS) == set(NAMES) == set(SIZES["full"]) == set(SIZES["smoke"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(smoke, workload, trace):
    got = smoke[workload, trace]
    result = got["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert got["printed"] == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_two_smoke_runs_repeat_exactly(smoke, traced_in_process, workload):
    expected = run.load_expected()[f"smoke/{workload}"]
    passes = traced_in_process[workload]["passes"]
    assert [p["digest"] for p in passes] == [expected] * 3
    assert not any(p["problems"] for p in passes)
    assert smoke[workload, 0]["digests"] == smoke[workload, 1]["digests"] == {
        expected[:12]
    }
    counted = "engine.events_per_input"
    assert (
        traced_in_process[workload]["metrics"][counted]
        == smoke[workload, 1]["result"]["metrics"][counted]["value"]
    )


@pytest.mark.parametrize("workload", NAMES)
def test_span_self_times(traced_in_process, workload):
    traced = traced_in_process[workload]
    recorder = traced["recorder"]
    assert recorder.names[0] == "pass" and recorder.parents[0] is None
    assert all(parent is not None for parent in recorder.parents[1:])
    own = recorder.self_times()
    assert min(own) >= -1e-9
    root = recorder.ends[0] - recorder.starts[0]
    assert sum(own) <= root + 1e-6
    assert traced["metrics"]["trace.overhead_ratio"] > 0
    spans = json.loads(
        (Path(traced["span_file"])).read_text(encoding="utf-8")
    )["spans"]
    assert len(spans) == len(recorder.names)
    assert set(spans[0]) == {"id", "name", "start", "end", "parent", "run"}


def test_wrappers_are_uninstalled_even_when_the_pass_raises():
    originals = [cls.__dict__[attr] for cls, attr, _ in tracing.ENTRY_POINTS]
    with pytest.raises(ZeroDivisionError):
        with tracing.traced(tracing.Recorder("t")):
            assert len(tracing.installed()) == len(tracing.ENTRY_POINTS)
            1 / 0
    assert tracing.installed() == []
    assert originals == [
        cls.__dict__[attr] for cls, attr, _ in tracing.ENTRY_POINTS
    ]


def test_corrupted_output_counts_as_failed():
    workload = WORKLOADS["scale_sliding"]()
    workload.setup(0, SIZES["smoke"]["scale_sliding"])
    probe = run.SpeedProbe()  # never started: it samples when asked
    good = run.one_pass(workload, probe)
    assert run.count_operations([good]) == (1, 0)
    assert good["wall"] == pytest.approx(good["raw_wall"] * good["speed"])

    honest = workload.run_pass
    workload.run_pass = lambda: {"events": honest()["events"][:-1]}
    bad = run.one_pass(workload, probe)
    assert bad["wall"] is None and "mass" in bad["problems"][0]
    assert run.count_operations([good, bad]) == (2, 1)

    # an output that passes its own checks but is not the committed one
    passes = [dict(good, problems=[])]
    run.judge_digests(passes, "0" * 64)
    assert passes[0]["wall"] is None
    assert run.count_operations(passes) == (1, 1)


def test_failed_pushes_count_per_push():
    workload = WORKLOADS["stream_push"]()
    workload.setup(0, SIZES["smoke"]["stream_push"])
    workload.rows[5] = dict(workload.rows[5], Time=-1)  # late: push refuses it
    record = run.one_pass(workload, run.SpeedProbe())
    assert record["failed_pushes"] == 1
    # Engine.run sorts the late row in, so the pass no longer equals it
    assert record["problems"]
    assert run.count_operations([record]) == (len(workload.rows),) * 2


def test_compare_names_a_regression(tmp_path, capsys):
    def runs(wall):
        metrics = {
            m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]
        }
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        return {"runs": [
            {"workload": "bt_timr", "seed": s, "size": "smoke", "trace": 0,
             "correct": True, "attempted": 6, "failed": 0, "metrics": metrics}
            for s in range(5)
        ]}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(runs(1.0)))
    b.write_text(json.dumps(runs(1.5)))
    assert run.compare(str(a), str(a)) == 0
    assert run.compare(str(a), str(b)) == 1
    assert re.search(r"bt_timr +wall_s .* worse", capsys.readouterr().out)
