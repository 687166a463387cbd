"""Union: merge two streams into one (Section II-A.2).

Multicast — the dual operator that feeds one stream to several downstream
consumers — needs no operator class here: the engine's plan graph is a
DAG, so a node with several parents is evaluated once and its output list
is shared (see ``runtime/dataflow.py``).
"""

from __future__ import annotations

from typing import Iterable

from ..event import Event
from .base import BinaryOperator


class Union(BinaryOperator):
    """Bag union of both inputs, preserving LE order."""

    def on_left(self, event: Event) -> Iterable[Event]:
        yield event

    def on_right(self, event: Event) -> Iterable[Event]:
        yield event
