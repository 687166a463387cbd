"""Application-time primitives for the temporal algebra.

The DSMS (Section II-A of the paper) reasons purely in *application time*:
timestamps are part of the event schema, and query results are a function
of those timestamps only — never of when tuples are physically processed.
We model the time axis as integer *ticks* (StreamInsight uses 100 ns
ticks; the unit is opaque to the algebra). One tick is the smallest
representable duration, so a point event occupies the lifetime
``[t, t + TICK)``.

All public helpers return plain ``int`` values so events stay cheap.
"""

from __future__ import annotations

from numbers import Real

#: Smallest representable duration; a point event lives for exactly one tick.
TICK: int = 1

#: Sentinel for "the end of time" — used for events with unbounded lifetime.
MAX_TIME: int = 2**62

#: Sentinel for "the beginning of time".
MIN_TIME: int = -(2**62)

#: Ticks per second. The reproduction uses 1 tick == 1 second, which keeps
#: synthetic log timestamps readable; nothing in the algebra depends on it.
TICKS_PER_SECOND: int = 1


def seconds(n: float) -> int:
    """Duration of ``n`` seconds, in ticks."""
    return int(n * TICKS_PER_SECOND)


def minutes(n: float) -> int:
    """Duration of ``n`` minutes, in ticks."""
    return seconds(n * 60)


def hours(n: float) -> int:
    """Duration of ``n`` hours, in ticks."""
    return minutes(n * 60)


def days(n: float) -> int:
    """Duration of ``n`` days, in ticks."""
    return hours(n * 24)


def data_error(exc: Exception) -> Exception:
    """``exc``, marked as raised by the data: the same rows raise it
    again, so the cluster does not re-run a task that failed with it."""
    exc.data_error = True
    return exc


def validate_interval(start: int, end: int) -> None:
    """Raise ``ValueError`` unless ``[start, end)`` is a non-empty interval."""
    if end <= start:
        raise data_error(ValueError(f"empty or inverted lifetime [{start}, {end})"))


def check_time(value, column: str = "Time", end: bool = False):
    """``value`` if it is a usable timestamp, else ``ValueError`` naming
    ``column`` and the value.

    Usable means a real number (``int``, ``float``, any ``numbers.Real``)
    that is neither a ``bool`` nor NaN, no earlier than :data:`MIN_TIME`,
    the beginning of time, and before :data:`MAX_TIME`, the end of time,
    which only a lifetime's end (``end``: an RE) may reach: the one rule
    every row decoder and the cluster's sort apply.
    """
    if (
        type(value) is int
        or (isinstance(value, Real) and not isinstance(value, bool) and value == value)
    ) and MIN_TIME <= value and (end or value < MAX_TIME):
        return value
    raise data_error(ValueError(
        f"column {column!r} holds {value!r}, not a usable time "
        f"(an int or float from {MIN_TIME} to before {MAX_TIME}, not a bool or NaN)"
    ))


_INT_ONLY = {int}


def check_times(values: list, column: str = "Time", ordered: bool = False) -> list:
    """:func:`check_time` over a batch: C-level passes over the value
    types and for the least and the largest value (none when ``ordered``:
    the values ascend, so they are the first and the last), and the
    per-value check only when some value is not an ``int``, before the
    beginning of time or at its end. Returns ``values``."""
    if not set(map(type, values)) <= _INT_ONLY or values and (
        (values[0] if ordered else min(values)) < MIN_TIME
        or (values[-1] if ordered else max(values)) >= MAX_TIME
    ):
        for value in values:
            check_time(value, column)
    return values
