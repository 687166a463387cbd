"""Batches are the only way into an operator.

The runtime hands a unary operator nothing but ``on_batch`` calls and a
binary one nothing but ``on_left_batch`` / ``on_right_batch`` calls
(``_FlatChain.run``, ``_deliver``); a live feed is a stream of one-event
batches. Every operator class in ``repro`` implements those methods
itself (or inherits them from an operator that does), and none keeps a
per-event entry point beside them.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.temporal.operators import BinaryOperator, UnaryOperator

PER_EVENT = ("on_event", "on_left", "on_right")
BATCH = {UnaryOperator: ("on_batch",), BinaryOperator: ("on_left_batch", "on_right_batch")}


def _import_all():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


_import_all()
OPERATORS = sorted(
    (
        (base, cls)
        for base in BATCH
        for cls in set(_subclasses(base))
        if cls.__module__.split(".")[0] == "repro"
    ),
    key=lambda pair: pair[1].__qualname__,
)


def test_every_operator_is_found():
    names = {cls.__name__ for _, cls in OPERATORS}
    assert {
        "Where", "Project", "AlterLifetime", "CountWindow", "SessionWindow",
        "SnapshotAggregate", "WindowedUDO", "SnapshotUDO", "ScanUDO",
        "TemporalJoin", "AntiSemiJoin", "Union", "GroupScheduler", "Deferred",
    } <= names


@pytest.mark.parametrize("base", sorted(BATCH, key=lambda b: b.__name__))
def test_the_bases_speak_only_batches(base):
    for name in PER_EVENT:
        assert not hasattr(base, name), f"{base.__name__}.{name}"
    for name in BATCH[base]:
        with pytest.raises(NotImplementedError):
            getattr(base, name)(base(), [])


@pytest.mark.parametrize(
    "base, cls", OPERATORS, ids=[cls.__qualname__ for _, cls in OPERATORS]
)
def test_operator_defines_its_batch_methods_and_nothing_per_event(base, cls):
    for name in BATCH[base]:
        assert getattr(cls, name) is not getattr(base, name), (
            f"{cls.__qualname__} leaves {name} to the base class"
        )
    for name in PER_EVENT:
        assert not hasattr(cls, name), f"{cls.__qualname__}.{name}"
