"""``repro.analysis`` — pre-flight static analysis of CQ plans.

The paper's determinism and scale-out guarantees hold only for plans
that are schema-correct, pure, and partition-safe; a violation today
surfaces as a traceback deep inside an embedded-DSMS reducer, after
cluster time has been spent. This package is the cheap alternative: a
rule-based static analyzer that runs over the logical
:class:`~repro.temporal.plan.PlanNode` DAG *before* execution.

Three passes over the plan (plus parameter checks):

* **schema inference** — propagates known payload columns through every
  operator and flags reads of columns the stream cannot carry;
* **determinism** — bytecode-inspects every runtime callable for
  randomness, clocks, mutable default arguments, captured mutable
  state, shared module state and ambient-environment reads (the
  hazards that break repeatable reducer restarts, or make output
  depend on the partition count or on whether a job was resumed);
* **partition safety** — cross-checks explicit ``.exchange()``
  annotations against every operator's :class:`PartitionConstraint`.

Entry points: :func:`analyze` (full report), :func:`validate_plan` (the
raise-on-error gate used by ``Engine.run`` and ``TiMR.run``), and the
``repro lint`` CLI. Findings can be silenced per-operator with a
``# repro: ignore[rule-id]`` comment on the constructing line.
"""

from .core import analyze, validate_plan, walk_plan
from .diagnostics import (
    AnalysisReport,
    Diagnostic,
    PlanValidationError,
    RULES,
    Rule,
)
from .targets import builtin_query_suite, example_plan_suite, lint_suite

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "PlanValidationError",
    "RULES",
    "Rule",
    "analyze",
    "builtin_query_suite",
    "example_plan_suite",
    "lint_suite",
    "validate_plan",
    "walk_plan",
]
