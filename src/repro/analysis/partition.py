"""Partition-safety and lifetime-parameter passes.

The partition pass statically re-derives what fragmentation would do to
an *annotated* plan (one carrying explicit ``.exchange()`` hints) and
cross-checks every operator against its :class:`PartitionConstraint`
before any M-R stage is compiled:

* an operator whose constraint rejects the exchange key below it —
  e.g. a global aggregate handed a payload key — is a
  ``partition.constraint-violation``;
* a binary operator whose two inputs arrive under different keys, or
  with one side exchanged and the other reading raw sources, is a
  ``partition.key-conflict`` (fragmentation would refuse the same plan
  at job-build time; the linter says it earlier and with a location);
* an exchange keyed on columns its input stream does not carry is a
  ``partition.missing-column`` (it would hash on absent values);
* a keyless ``exchange()`` (temporal/single partitioning) below an
  operator whose lifetime extent is unbounded on either side (a count
  or session window, a scan UDO, a custom rewrite) is a
  ``partition.unbounded-extent`` warning — spans cannot be sized, so
  the stage silently degrades to a single partition.

Plans without explicit exchanges are left to the cost-based optimizer,
which only ever inserts valid annotations.

The lifetime pass checks window parameters that today only explode at
execution time, deep inside a reducer: non-positive widths/hops/counts/
gaps, hopping windows whose width is not a multiple of the hop, and
opaque custom lifetime rewrites (which disable temporal partitioning and
streaming — worth a warning even though they are legal).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..temporal.plan import (
    AlterLifetimeNode,
    CountWindowNode,
    ExchangeNode,
    SessionWindowNode,
    SourceNode,
    GroupInputNode,
    topological_order,
)

#: Delivered-partitioning sentinel: no exchange between here and the
#: sources (the stream is in its natural "random" placement).
_RAW = "<raw>"
#: Sentinel for "already conflicting below" — avoids cascading reports.
_CONFLICT = "<conflict>"

Delivered = Union[str, Tuple[str, ...]]


def partition_pass(ctx, columns: Dict[int, Optional[frozenset]]) -> None:
    order = topological_order(ctx.root)
    if not any(isinstance(n, ExchangeNode) for n in order):
        return  # unannotated plan: the optimizer will place exchanges

    delivered: Dict[int, Delivered] = {}

    for node in order:  # children before parents
        if isinstance(node, (SourceNode, GroupInputNode)):
            delivered[node.node_id] = _RAW
            continue
        if isinstance(node, ExchangeNode):
            key = node.key
            available = columns.get(node.inputs[0].node_id)
            if key and available is not None:
                missing = sorted(set(key) - available)
                if missing:
                    ctx.report(
                        "partition.missing-column",
                        node,
                        f"exchange key {key!r} uses column(s) {missing} the "
                        f"stream does not carry (carries: {sorted(available)})",
                    )
            if len(set(key)) != len(key):
                ctx.report(
                    "schema.key-arity", node,
                    f"exchange key {key!r} lists duplicate columns",
                )
            delivered[node.node_id] = tuple(key)
            continue

        inputs = [delivered[c.node_id] for c in node.inputs]
        if len(inputs) == 2 and _CONFLICT not in inputs:
            left, right = inputs
            if left != right:
                raw_mix = _RAW in (left, right)
                if raw_mix:
                    keyed = left if right == _RAW else right
                    ctx.report(
                        "partition.key-conflict",
                        node,
                        "one input arrives through an exchange "
                        f"(key {keyed!r}) while the other reads raw sources; "
                        "every input of an annotated operator must flow "
                        "through an exchange",
                    )
                else:
                    ctx.report(
                        "partition.key-conflict",
                        node,
                        f"inputs are partitioned by conflicting keys "
                        f"{left!r} and {right!r}; multi-input operators need "
                        "identically partitioned inputs",
                    )
                delivered[node.node_id] = _CONFLICT
                continue
        current = next(
            (d for d in inputs if d not in (_RAW, _CONFLICT)), inputs[0]
        )
        delivered[node.node_id] = current

        if isinstance(current, tuple):
            if current and not node.partition_constraint().accepts(current):
                ctx.report(
                    "partition.constraint-violation",
                    node,
                    f"operator cannot execute under exchange key {current!r} "
                    f"(constraint: {node.partition_constraint()!r}); results "
                    "would differ per partition",
                )
            if current == () and None in node.lifetime_extent():
                ctx.report(
                    "partition.unbounded-extent",
                    node,
                    "operator has an unbounded lifetime extent under a "
                    "temporal/single-partition exchange; spans cannot be "
                    "sized, so the stage runs on one partition",
                )


def lifetime_pass(ctx) -> None:
    for node in ctx.all_nodes():
        if isinstance(node, AlterLifetimeNode):
            p = node.params
            if node.kind == "window" and p.get("w", 1) <= 0:
                ctx.report(
                    "lifetime.bad-window", node,
                    f"window width must be positive (got {p.get('w')!r})",
                )
            elif node.kind == "hop":
                w, h = p.get("w", 1), p.get("h", 1)
                if w <= 0 or h <= 0:
                    ctx.report(
                        "lifetime.bad-window", node,
                        f"hopping window needs positive width and hop "
                        f"(got w={w!r}, h={h!r})",
                    )
                elif w % h != 0:
                    ctx.report(
                        "lifetime.bad-window", node,
                        f"hopping window width {w!r} is not a multiple of "
                        f"the hop size {h!r}",
                    )
            elif node.kind == "custom":
                ctx.report(
                    "lifetime.opaque-alter", node,
                    "custom alter_lifetime has an opaque extent: temporal "
                    "partitioning and streaming are disabled for this plan",
                )
        elif isinstance(node, CountWindowNode) and node.n <= 0:
            ctx.report(
                "lifetime.bad-window", node,
                f"count window size must be positive (got {node.n!r})",
            )
        elif isinstance(node, SessionWindowNode) and node.gap <= 0:
            ctx.report(
                "lifetime.bad-window", node,
                f"session gap must be positive (got {node.gap!r})",
            )
