"""The ``executor`` keyword ``RunContext`` keeps for the repo benchmark,
and the per-run stats a partitioned run folds together.

The keyword is accepted, checked and inert: every run is serial, and a
context naming a parallel executor is one counted ``executor.serial``
resolution per run (docs/EXECUTION.md).
"""

import pytest

from repro.runtime import RunContext
from repro.runtime.context import SERIAL_RESOLUTION
from repro.runtime.dataflow import Dataflow
from repro.temporal import Query
from repro.temporal.engine import EngineStats
from repro.temporal.event import Event


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert RunContext().executor_resolutions() == {}
        assert RunContext(executor="serial").executor_resolutions() == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            RunContext(executor="gpu")
        with pytest.raises(ValueError, match="unknown executor"):
            RunContext().derive(executor="gpu")

    def test_run_context_resolves(self):
        for kind in ("thread", "process", "auto"):
            found = RunContext(executor=kind, max_workers=3).executor_resolutions()
            assert list(found) == [SERIAL_RESOLUTION]
            assert found[SERIAL_RESOLUTION]["count"] == 1
            assert f"executor={kind!r}" in found[SERIAL_RESOLUTION]["reason"]


class TestEngineStatsMerge:
    def _stats(self):
        s = EngineStats()
        s.input_events = 10
        s.output_events = 4
        s.operator_events = {"000.where": 4}
        s.operator_labels = {"000.where": "where(p)"}
        s.wall_seconds = 0.5
        return s

    def test_merge_sums_by_plan_path(self):
        a = self._stats()
        b = self._stats()
        b.operator_events["001.count"] = 2
        a.merge(b)
        assert a.input_events == 20
        assert a.operator_events == {"000.where": 8, "001.count": 2}
        assert a.wall_seconds == 1.0

    def test_self_merge_refused(self):
        s = self._stats()
        with pytest.raises(ValueError, match="itself"):
            s.merge(s)


def test_dataflow_close_is_idempotent():
    """Closing a flow twice is harmless."""
    q = Query.source("logs").group_apply(
        "UserId", lambda g: g.window(5).count(into="n")
    )
    flow = Dataflow(q.to_plan(), allow_unstreamable=True)
    flow.feed(
        "logs", [Event.point(t, {"UserId": f"u{t % 3}"}) for t in range(12)]
    )
    flow.set_watermarks(11)
    out = list(flow.advance())
    out.extend(flow.flush())
    flow.close()
    flow.close()
    assert out
