"""The public API surface: __all__ accuracy and top-level imports.

A downstream user's first contact with the library is ``from repro...
import X``; these tests pin that contract.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.temporal",
    "repro.temporal.operators",
    "repro.mapreduce",
    "repro.timr",
    "repro.bt",
    "repro.bt.baselines",
    "repro.data",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_importable(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_sorted_and_unique(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"duplicates in {name}.__all__"


def test_headline_imports():
    from repro import Engine, Event, Query, days, hours, minutes, run_query, seconds  # noqa: F401
    from repro.temporal import (  # noqa: F401
        StreamingEngine,
        explain,
        normalize,
        parse_sql,
        run_sql,
    )
    from repro.mapreduce import Cluster, CostModel, DistributedFileSystem  # noqa: F401
    from repro.timr import TiMR, Statistics, annotate_plan  # noqa: F401
    from repro.bt import BTConfig, BTPipeline, KEZSelector  # noqa: F401
    from repro.data import GeneratorConfig, generate  # noqa: F401


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_public_docstrings_present():
    """Every public module ships a docstring (the doc-comment contract)."""
    modules = PACKAGES + [
        "repro.temporal.engine",
        "repro.temporal.streaming",
        "repro.temporal.streamsql",
        "repro.temporal.plan",
        "repro.temporal.query",
        "repro.temporal.explain",
        "repro.mapreduce.cluster",
        "repro.mapreduce.cost",
        "repro.timr.optimizer",
        "repro.timr.fragments",
        "repro.timr.compile",
        "repro.timr.temporal_partition",
        "repro.bt.queries",
        "repro.bt.pipeline",
        "repro.bt.model",
        "repro.bt.stemming",
        "repro.data.generator",
        "repro.cli",
    ]
    for name in modules:
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 40, name


def test_run_settings_come_only_from_the_context():
    """Each entry point takes ``context=`` and no parameter for a value a
    ``RunContext`` field already holds, so a run's settings have one
    route in; ``TiMR`` takes none and runs under its cluster's context."""
    import inspect

    from repro.mapreduce import Cluster
    from repro.temporal import Engine, StreamingEngine
    from repro.timr import TiMR
    from repro.timr.compile import compile_fragment, make_reducer

    expected = {
        Engine.__init__: ["context"],
        Engine.run: ["query", "sources", "time_column", "validate"],
        StreamingEngine.__init__: ["query", "slack", "event_policy", "context"],
        Cluster.__init__: ["fs", "cost_model", "context"],
        TiMR.__init__: ["cluster", "statistics"],
        TiMR.run: [
            "query", "job_name", "num_partitions", "span_width", "auto_annotate",
            "validate",
        ],
        make_reducer: ["fragment", "span_layout", "context"],
        compile_fragment: [
            "fragment", "num_partitions", "span_layout", "bindings", "context",
        ],
    }
    got = {
        fn: [p for p in inspect.signature(fn).parameters if p != "self"]
        for fn in expected
    }
    assert got == expected
    assert sum(map(len, got.values())) == 28
