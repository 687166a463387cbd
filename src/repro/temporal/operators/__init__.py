"""Temporal operators (Section II-A.2 of the paper)."""

from .aggregate import (
    AGGREGATE_FACTORIES,
    AggSpec,
    AggregateFunction,
    AvgAgg,
    CountAgg,
    MaxAgg,
    MinAgg,
    SnapshotAggregate,
    StdDevAgg,
    SumAgg,
    TopKAgg,
)
from .base import (
    WAKE_ALWAYS,
    WAKE_AT_FLUSH,
    BinaryOperator,
    UnaryOperator,
    sort_events,
)
from .join import AntiSemiJoin, TemporalJoin
from .stateless import (
    AlterLifetime,
    CountWindow,
    Project,
    SessionWindow,
    Where,
    count_window,
    extend_to_infinity,
    session_window,
    hopping_window,
    shift_lifetime,
    sliding_window,
    to_point_events,
)
from .scan import ScanUDO
from .udo import SnapshotUDO, WindowedUDO
from .union import Union

__all__ = [
    "AGGREGATE_FACTORIES",
    "AggSpec",
    "AggregateFunction",
    "AlterLifetime",
    "AntiSemiJoin",
    "AvgAgg",
    "BinaryOperator",
    "CountAgg",
    "CountWindow",
    "MaxAgg",
    "MinAgg",
    "Project",
    "ScanUDO",
    "SessionWindow",
    "SnapshotAggregate",
    "SnapshotUDO",
    "StdDevAgg",
    "SumAgg",
    "TopKAgg",
    "TemporalJoin",
    "UnaryOperator",
    "Union",
    "WAKE_ALWAYS",
    "WAKE_AT_FLUSH",
    "Where",
    "WindowedUDO",
    "count_window",
    "extend_to_infinity",
    "hopping_window",
    "session_window",
    "shift_lifetime",
    "sliding_window",
    "sort_events",
    "to_point_events",
]
