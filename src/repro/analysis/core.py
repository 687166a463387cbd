"""Analyzer orchestration: run all passes, apply suppressions, gate runs.

``analyze(plan)`` is the whole static analyzer as one call; it powers
the ``repro lint`` CLI, the LINT section of ``explain()``, and the
pre-flight gates in :meth:`Engine.run <repro.temporal.engine.Engine.run>`
and :meth:`TiMR.run <repro.timr.runner.TiMR.run>` (both of which call
:func:`validate_plan`, the memoized raise-on-error wrapper — plans are
immutable, so one clean analysis is good forever).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..temporal.plan import GroupApplyNode, PlanNode
from .batchfmt import batch_pass
from .callables import callable_location, node_callables
from .determinism import determinism_pass
from .diagnostics import (
    AnalysisReport,
    Diagnostic,
    PlanValidationError,
    RULES,
    ignore_comment_rules,
)
from .partition import lifetime_pass, partition_pass
from .schema import schema_pass


def walk_plan(root: PlanNode) -> List[PlanNode]:
    """Every node reachable from ``root``, descending GroupApply sub-plans."""
    out: List[PlanNode] = []
    seen: Set[int] = set()

    def visit(node: PlanNode):
        if node.node_id in seen:
            return
        seen.add(node.node_id)
        out.append(node)
        if isinstance(node, GroupApplyNode):
            visit(node.subplan_root)
        for child in node.inputs:
            visit(child)

    visit(root)
    return out


class _Context:
    """Shared state the passes report into."""

    def __init__(self, root: PlanNode):
        self.root = root
        self.diagnostics: List[Diagnostic] = []
        self._nodes = walk_plan(root)

    def all_nodes(self) -> Sequence[PlanNode]:
        return self._nodes

    def report(
        self,
        rule: str,
        node: PlanNode,
        message: str,
        location: Optional[Tuple[str, int]] = None,
    ) -> None:
        if rule not in RULES:  # analyzer bug, fail loudly
            raise KeyError(f"unknown rule id {rule!r}")
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                message=message,
                node_id=node.node_id,
                node=node.describe(),
                location=location or node.source_location,
            )
        )


def _node_suppressions(node: PlanNode) -> Optional[Set[str]]:
    """Rules suppressed for ``node`` via ``# repro: ignore[...]`` comments.

    Comments are honoured on the line that constructed the node and on
    the definition line of any of its callables. Returns ``None`` when
    no ignore comment is present at all (so "comment seen" and "nothing
    suppressed" stay distinguishable).
    """
    lines: List[Tuple[str, int]] = []
    if node.source_location is not None:
        lines.append(node.source_location)
    for fn, _what in node_callables(node):
        loc = callable_location(fn)
        if loc is not None:
            lines.append(loc)
    found: Optional[Set[str]] = None
    for filename, lineno in lines:
        rules = ignore_comment_rules(filename, lineno)
        if rules is not None:
            found = (found or set()) | set(rules)
    return found


def analyze(
    plan_or_query,
    ignore: Iterable[str] = (),
) -> AnalysisReport:
    """Run every analyzer pass over a plan (or Query) and return the report.

    Args:
        plan_or_query: a :class:`~repro.temporal.query.Query` or plan root.
        ignore: rule ids suppressed globally (the CLI's ``--ignore``).
    """
    root = (
        plan_or_query.to_plan()
        if hasattr(plan_or_query, "to_plan")
        else plan_or_query
    )
    ctx = _Context(root)

    columns = schema_pass(ctx)
    determinism_pass(ctx)
    batch_pass(ctx)
    partition_pass(ctx, columns)
    lifetime_pass(ctx)

    # -- suppression ---------------------------------------------------------
    ignored_globally = set(ignore)
    suppressions: Dict[int, Set[str]] = {}
    for node in ctx.all_nodes():
        rules = _node_suppressions(node)
        if rules is None:
            continue
        suppressions[node.node_id] = rules
        for rule in rules - {"*"}:
            if rule not in RULES:
                ctx.report(
                    "suppression.unknown-rule",
                    node,
                    f"ignore comment names unknown rule {rule!r} "
                    f"(known rules: see docs/LINTING.md)",
                )

    kept: List[Diagnostic] = []
    for d in ctx.diagnostics:
        if d.rule in ignored_globally:
            continue
        node_rules = suppressions.get(d.node_id, set())
        if d.rule != "suppression.unknown-rule" and (
            d.rule in node_rules or "*" in node_rules
        ):
            continue
        kept.append(d)

    severity_rank = {"error": 0, "warning": 1}
    kept.sort(key=lambda d: (severity_rank[d.effective_severity], d.rule, d.node_id))
    return AnalysisReport(root, kept)


# -- the pre-flight gate -----------------------------------------------------

#: node_ids of plan roots that already passed validation. Plans are
#: immutable and node ids are process-unique, so a clean verdict never
#: goes stale; the set is cleared if it somehow grows huge.
_VALIDATED_OK: Set[int] = set()


def validate_plan(root: PlanNode) -> None:
    """Raise :class:`PlanValidationError` when a plan has error findings.

    Memoized per plan root: TiMR reducers re-run the same fragment plan
    once per partition and should not pay for re-analysis.
    """
    if root.node_id in _VALIDATED_OK:
        return
    report = analyze(root)
    if report.errors:
        raise PlanValidationError(report)
    if len(_VALIDATED_OK) > 1_000_000:  # unbounded-growth backstop
        _VALIDATED_OK.clear()
    _VALIDATED_OK.add(root.node_id)
