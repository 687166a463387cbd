"""Diagnostics framework: rules, findings, suppression, and rendering.

Every analyzer pass reports :class:`Diagnostic` instances against a rule
from the central :data:`RULES` registry. A diagnostic carries enough
location information (node id, operator description, and — when the plan
was built from Python source — the ``file:line`` of the call that created
the node) for the report to point a caret at the offending operator in a
rendered plan.

Suppression follows the familiar linter idiom: a ``# repro:
ignore[rule-id]`` comment on the line that constructs the operator (or on
the line defining one of its lambdas) silences that rule for that node;
``ignore[*]`` silences everything. Unknown rule ids inside an ignore
comment are themselves reported (``suppression.unknown-rule``), so stale
suppressions cannot rot silently.
"""

from __future__ import annotations

import linecache
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..temporal.plan import PlanNode, render

#: Severity levels, mild to fatal. ``error`` blocks execution when the
#: analyzer runs as the pre-flight gate of ``Engine.run`` / ``TiMR.run``.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Rule:
    """One statically checkable property of a CQ plan."""

    id: str
    severity: str
    summary: str

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


#: The rule catalog. Ordering here is the ordering of docs/LINTING.md.
RULES: Dict[str, Rule] = {}


def _rule(id: str, severity: str, summary: str) -> Rule:
    rule = Rule(id, severity, summary)
    RULES[id] = rule
    return rule


_rule(
    "schema.unknown-column",
    "error",
    "an operator references a payload column its input stream does not carry",
)
_rule(
    "schema.key-arity",
    "error",
    "a key or output column list is empty or contains duplicates",
)
_rule(
    "determinism.impure-call",
    "error",
    "a plan callable references a nondeterministic API (random, time, "
    "datetime.now, uuid, ...), breaking repeatable reducer restarts",
)
_rule(
    "determinism.mutable-default",
    "error",
    "a plan callable has a mutable default argument that persists state "
    "across events",
)
_rule(
    "determinism.mutable-closure",
    "warning",
    "a plan callable captures a mutable list/dict/set in its closure",
)
_rule(
    "determinism.unstable-hash",
    "warning",
    "a plan callable uses builtin hash(), whose value changes across "
    "processes (PYTHONHASHSEED)",
)
_rule(
    "partition.constraint-violation",
    "error",
    "an operator cannot execute under the exchange key annotated below it",
)
_rule(
    "partition.key-conflict",
    "error",
    "a multi-input operator receives differently partitioned (or mixed "
    "exchanged/raw) inputs",
)
_rule(
    "partition.missing-column",
    "error",
    "an exchange partitions on a column the stream does not carry",
)
_rule(
    "partition.unbounded-extent",
    "warning",
    "an unbounded lifetime extent sits under a temporal/single-partition "
    "exchange, so temporal partitioning degrades to one partition",
)
_rule(
    "lifetime.bad-window",
    "error",
    "a window/hop/count/session parameter is non-positive or inconsistent",
)
_rule(
    "lifetime.opaque-alter",
    "warning",
    "a custom alter_lifetime has an opaque extent: no temporal "
    "partitioning, no streaming",
)
_rule(
    "parallel.shared-mutable-capture",
    "warning",
    "a plan callable shares mutable state (module global, or closure "
    "cell inside a GroupApply sub-plan) across parallel schedules",
)
_rule(
    "parallel.fork-unsafe-capture",
    "warning",
    "a plan callable captures an open file, socket, lock, or generator "
    "that cannot cross a fork/pickle boundary (blocks the process "
    "executor)",
)
_rule(
    "parallel.ambient-env",
    "warning",
    "a plan callable reads os.environ/os.getenv, ambient per-process "
    "state not routed through RunContext",
)
_rule(
    "parallel.order-dependent-reduce",
    "warning",
    "a UDO or aggregate merge function accumulates into shared state, "
    "so its result depends on shard/schedule order (not commutative)",
)
_rule(
    "parallel.dynamic-race",
    "warning",
    "the shadow race checker observed a watched object mutated from two "
    "different task schedules during an instrumented run",
)
_rule(
    "parallel.schedule-divergence",
    "error",
    "re-running with a perturbed (reversed) task schedule produced "
    "different output bytes: execution is schedule-dependent",
)
_rule(
    "batch.payload-mutation",
    "warning",
    "a plan callable mutates a payload mapping in place; events share "
    "their payload mappings across the branches of a multicast, join "
    "synopses and emitted events, so in-place writes corrupt what other "
    "operators read",
)
_rule(
    "suppression.unknown-rule",
    "warning",
    "a # repro: ignore[...] comment names a rule id that does not exist",
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer, anchored to a plan node."""

    rule: str
    message: str
    node_id: int
    node: str
    location: Optional[Tuple[str, int]] = None
    severity: Optional[str] = None  # defaults to the rule's severity

    @property
    def effective_severity(self) -> str:
        if self.severity is not None:
            return self.severity
        return RULES[self.rule].severity

    def format(self) -> str:
        where = ""
        if self.location is not None:
            where = f" at {self.location[0]}:{self.location[1]}"
        return (
            f"{self.effective_severity}[{self.rule}] {self.message} "
            f"(node #{self.node_id} {self.node!r}{where})"
        )


_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]")


def ignore_comment_rules(filename: str, lineno: int) -> Optional[List[str]]:
    """Rule ids listed in a ``# repro: ignore[...]`` comment on a line.

    Returns ``None`` when the line carries no ignore comment; an empty
    list (``ignore[]``) suppresses nothing but is still "present".
    """
    line = linecache.getline(filename, lineno)
    m = _IGNORE_RE.search(line)
    if not m:
        return None
    return [part.strip() for part in m.group(1).split(",") if part.strip()]


class AnalysisReport:
    """All diagnostics the analyzer produced for one plan."""

    def __init__(self, root: PlanNode, diagnostics: Sequence[Diagnostic]):
        self.root = root
        self.diagnostics = list(diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.effective_severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.effective_severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when nothing at all was flagged."""
        return not self.diagnostics

    def rule_ids(self) -> Set[str]:
        return {d.rule for d in self.diagnostics}

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
            if self.diagnostics
            else "no findings"
        )

    def render(self, show_plan: bool = True) -> str:
        """The full report: one line per finding plus a caret-marked plan."""
        lines = [f"lint: {self.summary()}"]
        lines.extend(f"  {d.format()}" for d in self.diagnostics)
        if show_plan and self.diagnostics:
            by_node: Dict[int, List[str]] = {}
            for d in self.diagnostics:
                by_node.setdefault(d.node_id, []).append(
                    f"[{d.rule}] {d.message}"
                )

            def annotate(node: PlanNode) -> Iterable[str]:
                return by_node.get(node.node_id, ())

            lines.append("")
            lines.append(render(self.root, indent="  ", annotate=annotate))
        return "\n".join(lines)


class PlanValidationError(ValueError):
    """Raised by the pre-flight gate when a plan has error diagnostics."""

    def __init__(self, report: AnalysisReport):
        self.report = report
        findings = "; ".join(d.format() for d in report.errors[:5])
        more = len(report.errors) - 5
        if more > 0:
            findings += f"; ... {more} more"
        super().__init__(
            f"plan failed pre-flight static analysis ({findings}). "
            "Fix the plan, add a '# repro: ignore[rule]' comment on the "
            "offending operator, or pass validate=False to skip the gate."
        )
