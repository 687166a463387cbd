"""Self-lint targets: the built-in BT queries and the example plans.

``repro lint --builtin`` runs the analyzer over every temporal query the
repository ships — the ~20 CQs of the BT solution (Figure 14) plus the
plans the ``examples/`` scripts execute — and is itself exercised by CI
(``make check``), so a refactor that breaks a built-in plan's schema,
determinism, or partition safety fails the build before it fails a job.
"""

from __future__ import annotations

from typing import Dict

from ..temporal.query import Query
from .core import analyze
from .diagnostics import AnalysisReport


def builtin_query_suite() -> Dict[str, Query]:
    """Every built-in BT query, constructed with default configuration."""
    from ..bt.incremental import incremental_model_query
    from ..bt.queries import (
        UNIFIED_COLUMNS,
        bot_detection_query,
        bot_elimination_query,
        feature_selection_query,
        labeled_activity_query,
        non_click_query,
        total_count_query,
        training_data_query,
        ubp_query,
    )
    from ..bt.schema import BTConfig
    from ..bt.scoring import model_generation_query, scoring_query
    from ..temporal.time import days

    cfg = BTConfig()
    source = Query.source("logs", UNIFIED_COLUMNS)
    horizon = days(7)
    example_source = Query.source(
        "examples", ("UserId", "AdId", "y", "Features")
    )
    profiles = Query.source("profiles", ("UserId", "AdId", "y", "Features"))

    return {
        "bot-detection": bot_detection_query(source, cfg),
        "bot-elimination": bot_elimination_query(source, cfg),
        "non-clicks": non_click_query(source, cfg),
        "labeled-activity": labeled_activity_query(source, cfg),
        "ubp": ubp_query(source, cfg),
        "training-data": training_data_query(source, cfg),
        "total-count": total_count_query(
            labeled_activity_query(source, cfg), cfg, horizon
        ),
        "feature-selection": feature_selection_query(source, cfg, horizon),
        "model-generation": model_generation_query(example_source, cfg),
        "scoring": scoring_query(
            profiles, model_generation_query(example_source, cfg)
        ),
        "incremental-model": incremental_model_query(example_source, cfg),
    }


def example_plan_suite() -> Dict[str, Query]:
    """The plans the ``examples/`` scripts run, rebuilt for linting.

    The example files additionally expose a ``lint_queries()`` hook that
    ``repro lint path/to/example.py`` execs directly; this suite keeps a
    no-filesystem-needed copy for tests and ``--builtin`` runs.
    """
    from ..bt.queries import UNIFIED_COLUMNS
    from ..bt.schema import CLICK, BTConfig
    from ..bt.scoring import model_generation_query, scoring_query
    from ..temporal.streamsql import parse
    from ..temporal.time import hours

    cfg = BTConfig()
    quickstart = (
        Query.source("logs", ("StreamId", "UserId", "AdId"))
        .where(lambda e: e["StreamId"] == CLICK)
        .group_apply(
            "AdId", lambda g: g.window(hours(6)).count(into="ClickCount")
        )
    )
    tour_sql = parse(
        "SELECT COUNT(*) AS Clicks FROM logs WHERE StreamId = 1 "
        "GROUP APPLY KwAdId WINDOW 6 HOURS"
    )
    from ..bt.queries import bot_elimination_query

    examples_src = Query.source("examples", ("UserId", "AdId", "y", "Features"))
    return {
        "quickstart-running-click-count": quickstart,
        "streamsql-tour-click-count": tour_sql,
        "realtime-bot-elimination": bot_elimination_query(
            Query.source("logs", UNIFIED_COLUMNS), cfg
        ),
        "realtime-model-scoring": scoring_query(
            examples_src, model_generation_query(examples_src, cfg)
        ),
    }


def lint_suite(
    suite: Dict[str, Query], ignore=()
) -> Dict[str, AnalysisReport]:
    """Analyze every query in a suite; returns ``{name: report}``."""
    return {name: analyze(q, ignore=ignore) for name, q in sorted(suite.items())}
