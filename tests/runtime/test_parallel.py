"""The ``executor`` keyword ``RunContext`` keeps for the repo benchmark.

The keyword is accepted, checked and inert: every run is serial, and a
context naming a parallel executor is one counted ``executor.serial``
resolution per run (docs/EXECUTION.md).
"""

import pytest

from repro.runtime import RunContext
from repro.runtime.context import SERIAL_RESOLUTION
from repro.runtime.dataflow import Dataflow
from repro.temporal import Query
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
