"""Union: merge two streams into one (Section II-A.2).

Multicast — the dual operator that feeds one stream to several downstream
consumers — needs no operator class here: the engine's plan graph is a
DAG, so a node with several parents is evaluated once and its output list
is shared (see ``runtime/dataflow.py``).
"""

from __future__ import annotations

from .base import BinaryOperator


class Union(BinaryOperator):
    """Bag union of both inputs, preserving LE order."""

    def on_left_batch(self, events) -> list:
        return list(events)

    on_right_batch = on_left_batch
