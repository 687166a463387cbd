"""The ``executor`` keyword ``RunContext`` keeps for the repo benchmark.

The keyword is accepted, checked and inert: every run is serial, and a
context naming a parallel executor is one counted ``executor.serial``
resolution per run (docs/EXECUTION.md).
"""

import pytest

from repro.runtime import RunContext
from repro.runtime.context import SERIAL_RESOLUTION


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

