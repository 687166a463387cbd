"""Payload-immutability pass: events share their payload mappings.

An :class:`~repro.temporal.event.Event` is handed operator to operator
by reference, and so is its payload dict: every consumer of a multicast
(two branches over one source, a self-join) reads the *same* source
events, Where / AlterLifetime / Union pass payloads through untouched,
join synopses alias payload dicts across stored and emitted events, and
GroupApply attaches key columns to a fresh aggregate payload in place.
All of that is sound only if plan callables treat every payload
argument as read-only and return *new* mappings: a projection that
writes ``p["x"] = -1`` into its argument rewrites the event its sibling
branch is about to filter (``tests/analysis/test_batch_rule.py`` runs
that plan: 3 events come back where 6 should).

This pass inspects the bytecode of every payload-receiving callable for
in-place writes to its payload parameters — subscript assignment or
deletion and the dict-mutator methods (``update``, ``setdefault``,
``pop``, ``popitem``, ``clear``) — and reports
``batch.payload-mutation`` (warning severity: a plan whose mutated
payload has exactly one reader still behaves, so the pre-flight gate
never blocks on it). A scan UDO's *state* argument is deliberately
exempt — folding into it is the operator's contract; only its payload
argument is watched.

Suppression follows the usual idiom: ``# repro:
ignore[batch.payload-mutation]`` on the operator (or the lambda's
definition line).
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..temporal.plan import (
    AntiSemiJoinNode,
    PlanNode,
    ProjectNode,
    ScanUDONode,
    TemporalJoinNode,
    WhereNode,
)
from .callables import callable_location, payload_param_mutations

#: node type -> {callable attribute: positional payload-parameter
#: indexes}. AlterLifetime's le_fn/re_fn take integers and windowed /
#: snapshot UDOs take a freshly copied payload *list*, so neither is
#: watched; ScanUDO's fn is ``fn(state, payload, le)`` — only the
#: payload at position 1 is read-shared (state at 0 is the fold's own).
_PAYLOAD_PARAMS: Dict[Type[PlanNode], Dict[str, Tuple[int, ...]]] = {
    WhereNode: {"predicate": (0,)},
    ProjectNode: {"fn": (0,)},
    TemporalJoinNode: {"residual": (0, 1), "select": (0, 1)},
    AntiSemiJoinNode: {"residual": (0, 1)},
    ScanUDONode: {"fn": (1,)},
}

def _describe(node: PlanNode, attr: str) -> str:
    if isinstance(node, WhereNode):
        return "predicate"
    if isinstance(node, ProjectNode):
        return "projection"
    if isinstance(node, ScanUDONode):
        return "scan UDO"
    if attr == "residual":
        return "join residual"
    return "join select"


def batch_pass(ctx) -> None:
    for node in ctx.all_nodes():
        attrs = None
        for node_type, mapping in _PAYLOAD_PARAMS.items():
            if isinstance(node, node_type):
                attrs = mapping
                break
        if attrs is None:
            continue
        for attr, indexes in attrs.items():
            fn = getattr(node, attr, None)
            if fn is None:
                continue
            what = _describe(node, attr)
            location = callable_location(fn) or node.source_location
            for _name, desc in payload_param_mutations(fn, indexes):
                ctx.report(
                    "batch.payload-mutation",
                    node,
                    f"{what} {desc}; events share their payload mappings "
                    "across the branches of a multicast, join synopses "
                    "and emitted events, so in-place writes corrupt what "
                    "other operators read — return a new mapping instead "
                    "(docs/LINTING.md)",
                    location=location,
                )
