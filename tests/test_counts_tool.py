"""``tools/counts.py`` (``make counts``): the work counters of the
benchmark workloads, a revision against the working tree."""

import importlib.util
import sys
from pathlib import Path

from repro.obs import NULL_TRACER
from repro.runtime import DEFAULT_CONTEXT

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("counts", ROOT / "tools" / "counts.py")
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)


def _row(**changes):
    row = {"chain advances": 10, "operator_events": 20, "decoded_rows": 0,
           "array_swept_rows": 5, "output rows": 20, "digest": "abc"}
    row.update(changes)
    return row


def test_equal_sides_pass_and_na_matches_anything():
    text, differs = counts.table(
        {"scale_sliding": _row(**{"chain advances": counts.NA})},
        {"scale_sliding": _row()}, "HEAD~1",
    )
    assert not differs and "!" not in text
    assert text.splitlines()[0].split() == ["workload", "HEAD~1", "tree"]
    assert text.splitlines()[1].split()[-2:] == [counts.NA, "10"]


def test_a_difference_is_flagged_on_its_row():
    text, differs = counts.table(
        {"bt_timr": _row()}, {"bt_timr": _row(decoded_rows=1200, digest="abd")}, "a1"
    )
    assert differs
    flagged = [line.split()[1] for line in text.splitlines() if line.endswith("!")]
    assert flagged == ["decoded_rows", "digest"]
    assert "1,200" in text


def test_output_rows_reads_events_or_row_datasets():
    assert counts.output_rows({"events": [1, 2, 3]}) == 3
    assert counts.output_rows({"rows": {"a": [1], "b": [2, 3]}, "jobs": {}}) == 3


def test_a_traced_pass_counts_the_work(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    found = counts.collect(ROOT, ["scale_sliding"], size="smoke")["scale_sliding"]
    assert DEFAULT_CONTEXT.tracer is NULL_TRACER  # put back
    assert set(found) == set(counts.ROWS)
    # a keyed sliding sum over rows: every row swept as arrays, none decoded
    assert found["decoded_rows"] == 0 and found["array_swept_rows"] == 15_000
    assert found["chain advances"] > 0
    assert found["operator_events"] == found["output rows"] > 15_000
