"""``repro.temporal`` — a single-node temporal DSMS (StreamInsight stand-in).

The data model, algebra, and operator set follow Section II-A of the
paper: events with lifetimes ``[LE, RE)``, snapshot semantics, and the
operators Select/Project, AlterLifetime (windowing), snapshot aggregates,
GroupApply, Union, Multicast, TemporalJoin, AntiSemiJoin, and windowed
user-defined operators. Queries are written with the fluent LINQ-like
:class:`Query` builder and executed by :class:`Engine`.
"""

from .engine import Engine, EngineStats, run_query
from .explain import explain, explain_timr
from .event import Event, events_to_rows, point_events, rows_to_events
from .query import Query
from .relation import equivalent, normalize, snapshot
from .streaming import (
    EVENT_POLICIES,
    QuarantinedEvent,
    StreamingEngine,
    StreamingUnsupported,
)
from .streamsql import StreamSQLError, parse as parse_sql, run_sql
from .time import MAX_TIME, MIN_TIME, TICK, days, hours, minutes, seconds

__all__ = [
    "Engine",
    "EngineStats",
    "Event",
    "MAX_TIME",
    "MIN_TIME",
    "Query",
    "StreamSQLError",
    "EVENT_POLICIES",
    "QuarantinedEvent",
    "StreamingEngine",
    "StreamingUnsupported",
    "TICK",
    "parse_sql",
    "run_sql",
    "days",
    "equivalent",
    "explain",
    "explain_timr",
    "events_to_rows",
    "hours",
    "minutes",
    "normalize",
    "point_events",
    "rows_to_events",
    "run_query",
    "seconds",
    "snapshot",
]
