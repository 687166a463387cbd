"""Fragment extraction: cutting an annotated CQ plan at exchange operators.

Section III-A step 3 ("Make Fragments"): starting from the root, walk the
annotated plan top-down and stop when an exchange operator is reached
along all paths. The sub-plan traversed is a *query fragment*,
parallelizable by the partitioning key of the encountered exchanges
(which must agree — multi-input operators have identically partitioned
inputs). The walk repeats below each exchange until the plan's leaves,
yielding a DAG of {fragment, key} pairs; each becomes one M-R stage.

A fragment's plan is rewritten so every boundary exchange becomes a
:class:`SourceNode` naming the dataset the fragment reads — either an
original input file or a lower fragment's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..temporal.plan import (
    ExchangeNode,
    Extent,
    PlanNode,
    SourceNode,
    rewrite,
    subplan_extent,
    topological_order,
)


@dataclass
class Fragment:
    """One parallelizable unit of an annotated plan (= one M-R stage).

    Attributes:
        index: bottom-up execution order.
        root: the fragment's plan; its SourceNodes name ``input_names``.
        key: partitioning key columns; ``()`` means the fragment is not
            payload-partitionable (single partition or temporal spans).
        input_names: datasets read (original files or lower fragments).
        output_name: dataset this fragment writes.
        extent: (past, future) lifetime extent of the fragment plan, a
            side ``None`` when unbounded — governs temporal-partitioning
            overlap, which needs both sides bounded.
    """

    index: int
    root: PlanNode
    key: Tuple[str, ...]
    input_names: List[str]
    output_name: str
    extent: Extent = (None, None)

    @property
    def is_payload_partitioned(self) -> bool:
        return bool(self.key)

    def describe(self) -> str:
        key = ",".join(self.key) if self.key else "<none>"
        return (
            f"fragment {self.index}: key=({key}) "
            f"inputs={self.input_names} -> {self.output_name}"
        )


class FragmentationError(ValueError):
    """The annotated plan cannot be cut into valid fragments."""


def make_fragments(root: PlanNode, job_name: str = "timr") -> List[Fragment]:
    """Cut an annotated plan into bottom-up-ordered fragments.

    The final fragment writes ``{job_name}.out``; intermediate fragments
    write ``{job_name}.frag{i}``.
    """
    import itertools

    fragments: List[Fragment] = []
    memo: Dict[int, str] = {}  # exchange node_id -> dataset name feeding it
    name_counter = itertools.count()

    def extract(frag_root: PlanNode, output_name: str) -> Fragment:
        boundaries: List[ExchangeNode] = []
        plain_sources: List[SourceNode] = []
        seen = set()

        def walk(node: PlanNode):
            if node.node_id in seen:
                return
            seen.add(node.node_id)
            if isinstance(node, ExchangeNode):
                boundaries.append(node)
                return  # fragment boundary: do not descend further
            if isinstance(node, SourceNode):
                plain_sources.append(node)
                return
            for child in node.inputs:
                walk(child)

        walk(frag_root)

        if isinstance(frag_root, ExchangeNode):
            raise FragmentationError(
                "plan root is an exchange operator; exchanges belong below "
                "computation, not above the final output"
            )
        if boundaries and plain_sources:
            raise FragmentationError(
                "fragment mixes exchanged inputs "
                f"({[b.describe() for b in boundaries]}) with raw sources "
                f"({[s.name for s in plain_sources]}); every input of an "
                "annotated plan must flow through an exchange"
            )

        keys = {b.key for b in boundaries}
        if len(keys) > 1:
            raise FragmentationError(
                f"fragment has conflicting partition keys {sorted(keys)}; "
                "multi-input operators require identically partitioned inputs"
            )
        frag_key: Tuple[str, ...] = next(iter(keys)) if keys else ()

        # Resolve each boundary: a source directly below the exchange is an
        # original input file; anything else becomes a lower fragment.
        replacements: Dict[int, PlanNode] = {}
        input_names: List[str] = []
        for b in boundaries:
            if b.node_id in memo:
                name = memo[b.node_id]
            else:
                child = b.inputs[0]
                if isinstance(child, SourceNode):
                    name = child.name
                else:
                    lower_name = f"{job_name}.frag{next(name_counter)}"
                    extract(child, lower_name)
                    name = lower_name
                memo[b.node_id] = name
            replacements[b.node_id] = SourceNode(name)
            if name not in input_names:
                input_names.append(name)

        if not boundaries:
            input_names = []
            for s in plain_sources:
                if s.name not in input_names:
                    input_names.append(s.name)

        frag_plan = rewrite(frag_root, replacements) if replacements else frag_root
        fragment = Fragment(
            index=len(fragments),
            root=frag_plan,
            key=frag_key,
            input_names=input_names,
            output_name=output_name,
            extent=subplan_extent(frag_plan),
        )
        _check_fragment_key(fragment)
        fragments.append(fragment)
        return fragment

    extract(root, f"{job_name}.out")
    return fragments


def _check_fragment_key(fragment: Fragment) -> None:
    """Every operator in the fragment must accept the fragment's key."""
    key = fragment.key
    for node in topological_order(fragment.root):
        if not node.partition_constraint().accepts(key):
            raise FragmentationError(
                f"operator {node.describe()!r} cannot run under partitioning "
                f"key {key!r} (constraint {node.partition_constraint()!r}); "
                "fix the plan annotation"
            )


def describe_fragments(fragments: List[Fragment]) -> str:
    """Readable summary of a fragment DAG (for logs and examples)."""
    return "\n".join(f.describe() for f in fragments)
