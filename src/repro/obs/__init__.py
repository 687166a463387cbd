"""``repro.obs`` — the unified telemetry layer.

Spans (:mod:`~repro.obs.trace`), metrics (:mod:`~repro.obs.metrics`),
exporters (:mod:`~repro.obs.export`), and optimizer calibration
(:mod:`~repro.obs.calibration`) shared by the temporal engine, the
simulated cluster, TiMR, and the streaming engine. See
``docs/OBSERVABILITY.md`` for the span model and metric catalog.

Tracing is off by default everywhere: a run's tracer is its
:class:`~repro.runtime.RunContext`'s, :data:`NULL_TRACER` unless set,
whose spans and instruments are shared no-ops, so disabled runs execute
the exact pre-instrumentation code path.
"""

from .calibration import CalibrationReport, OperatorCalibration, calibrate
from .export import (
    chrome_trace,
    render_tree,
    sim_trace_tree,
    span_record,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TRACER_OVERHEAD_BUDGET_FACTOR,
    Tracer,
)

__all__ = [
    "CalibrationReport",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "OperatorCalibration",
    "Span",
    "TIME_BUCKETS",
    "TRACER_OVERHEAD_BUDGET_FACTOR",
    "Tracer",
    "calibrate",
    "chrome_trace",
    "render_tree",
    "sim_trace_tree",
    "span_record",
    "write_chrome_trace",
    "write_jsonl",
]
