"""One batch type: ``Batch`` is the only sequence class in ``repro``.

The row↔event boundary of the reducer's embedded engine (a source's
rows, a keyed root's release, a run's result) is one read-only
``Sequence[Event]`` class, ``temporal/event.py::Batch``, with one decode
rule per way it holds a payload. A second container class beside it,
a ``list`` subclass included, fails here.
"""

import importlib
import pkgutil
from collections.abc import Sequence

import repro
from repro.temporal.event import Batch


def _import_all():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _classes():
    """Every class alive, ``object`` down (``type.__subclasses__``
    takes ``type`` itself as an argument too)."""
    seen, stack = set(), [object]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.add(cls)
            stack.extend(type.__subclasses__(cls))
    return seen


def test_batch_is_the_only_sequence_class_in_repro():
    _import_all()
    ours = {
        cls
        for cls in _classes()
        if str(vars(cls).get("__module__")).split(".")[0] == "repro"
        and issubclass(cls, Sequence)
    }
    assert ours == {Batch}, sorted(f"{c.__module__}.{c.__qualname__}" for c in ours)
