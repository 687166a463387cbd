"""Executor overhead attribution: where parallel wall time actually goes.

The parallel executors (``repro.runtime.parallel``) decompose each run's
worker-time *budget* — ``workers × wall`` seconds of capacity — into six
components, accumulated on ``ParallelStats.overhead``:

* **serialize** — time workers spend pickling results onto the pipe.
* **dispatch** — chunk handoff latency plus worker spawn/teardown: the
  gap between the call's wall window and each worker's live window.
* **compute** — task function time inside workers (the only useful part).
* **idle** — capacity nobody used: workers blocked on the queue while
  others still run, tail waves narrower than the pool.
* **merge** — driver time folding results back in order.
* **supervision** — recovery machinery: deadline sweeps, refills of lost
  chunks, respawns, plus the budget lost to killed worker lanes.

By construction the six sum to the budget (idle is the residual,
clamped at zero), so the table always covers ~100% of capacity and the
dominant *non-compute* component names the bottleneck to attack first.

:func:`attribute` turns the stats dict into an :class:`AttributionReport`;
:func:`render_table` prints it, optionally against a serial-equivalent
wall measurement (``repro profile --parallel`` runs one for you).

:data:`TRACER_OVERHEAD_BUDGET_FACTOR` is the documented ceiling on how
much slower a tracing-enabled run may be than its ``NULL_TRACER`` twin;
the self-test in ``tests/obs/test_overhead_budget.py`` enforces it so
instrumentation cannot silently eat the parallelism win it diagnoses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

#: Max slowdown factor a tracing-enabled run may show over NULL_TRACER.
#: Generous because bench queries are tiny (milliseconds), where constant
#: span overhead looms large; real workloads sit far below this.
TRACER_OVERHEAD_BUDGET_FACTOR = 5.0

#: Attribution components, in display order. ``compute`` is the useful
#: part; everything else is overhead.
COMPONENTS = ("compute", "serialize", "dispatch", "merge", "supervision", "idle")


@dataclass
class AttributionReport:
    """One run's overhead decomposition, ready to render or assert on."""

    components: Dict[str, float]  # component -> seconds
    wall_seconds: float  # parallel wall time (driver-measured)
    budget_seconds: float  # workers x wall capacity
    calls: int  # run_tasks invocations folded in
    serial_wall_seconds: Optional[float] = None  # serial-equivalent run
    notes: List[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.components.values())

    @property
    def coverage(self) -> float:
        """Fraction of the budget the components explain (~1.0 always)."""
        if self.budget_seconds <= 0:
            return 1.0
        return self.total_seconds / self.budget_seconds

    @property
    def dominant_overhead(self) -> str:
        """The largest non-compute component — the thing to fix first."""
        overheads = {k: v for k, v in self.components.items() if k != "compute"}
        if not overheads or all(v <= 0 for v in overheads.values()):
            return "none"
        return max(overheads, key=lambda k: (overheads[k], k))

    @property
    def speedup(self) -> Optional[float]:
        if self.serial_wall_seconds is None or self.wall_seconds <= 0:
            return None
        return self.serial_wall_seconds / self.wall_seconds

    def share(self, component: str) -> float:
        if self.budget_seconds <= 0:
            return 0.0
        return self.components.get(component, 0.0) / self.budget_seconds


def attribute(
    overhead: Mapping[str, object],
    serial_wall_seconds: Optional[float] = None,
) -> AttributionReport:
    """Build a report from ``ParallelStats.overhead`` (its ``as_dict``).

    Accepts the plain-dict form so callers holding only a results
    summary (CLI, CI artifacts) can attribute without importing the
    runtime layer. Unknown keys are ignored; missing components read as
    zero.
    """
    components = {
        name: float(overhead.get(f"{name}_seconds", 0.0)) for name in COMPONENTS
    }
    return AttributionReport(
        components=components,
        wall_seconds=float(overhead.get("wall_seconds", 0.0)),
        budget_seconds=float(overhead.get("budget_seconds", 0.0)),
        calls=int(overhead.get("calls", 0)),
        serial_wall_seconds=serial_wall_seconds,
    )


def render_table(report: AttributionReport) -> str:
    """The attribution report as an aligned terminal table."""
    lines = [
        "overhead attribution (budget = workers x wall = "
        f"{report.budget_seconds * 1e3:.1f}ms over {report.calls} call"
        + ("s)" if report.calls != 1 else ")"),
        f"{'component':<12} {'seconds':>10} {'% budget':>9}",
    ]
    for name in COMPONENTS:
        seconds = report.components.get(name, 0.0)
        lines.append(
            f"{name:<12} {seconds * 1e3:>8.2f}ms {report.share(name) * 100:>8.1f}%"
        )
    lines.append(
        f"{'total':<12} {report.total_seconds * 1e3:>8.2f}ms "
        f"{report.coverage * 100:>8.1f}%"
    )
    lines.append(f"parallel wall: {report.wall_seconds * 1e3:.1f}ms")
    if report.serial_wall_seconds is not None:
        speedup = report.speedup or 0.0
        lines.append(
            f"serial wall:   {report.serial_wall_seconds * 1e3:.1f}ms "
            f"(speedup {speedup:.2f}x)"
        )
    lines.append(f"dominant overhead: {report.dominant_overhead}")
    lines.extend(report.notes)
    return "\n".join(lines)
