"""The temporal queries of the end-to-end BT solution (Section IV-B).

Every BT stage is a declarative CQ over the unified schema — these are
the "20 easy-to-write temporal queries" of Figure 14. Each builder
returns a :class:`repro.temporal.Query`; the same objects run unmodified
on the single-node engine (real-time-ready) and at scale through TiMR.

The registry at the bottom is what the Figure 14 benchmark counts.
"""

from __future__ import annotations

from typing import Dict

from ..temporal.plan import SourceNode
from ..temporal.query import Query
from .schema import CLICK, IMPRESSION, KEYWORD, BTConfig
from .ztest import keyword_z_score

#: Payload columns of the unified schema (Figure 9) once Time moves into
#: the event lifetime.
UNIFIED_COLUMNS = ("StreamId", "UserId", "KwAdId")


def _with_schema(source: Query) -> Query:
    """Declare the unified schema on a bare source (optimizer metadata).

    When the caller hands a plain ``Query.source("logs")``, attach the
    Figure 9 columns so the annotation optimizer knows which partitioning
    keys the raw stream supports. Sources with declared columns and
    derived streams pass through untouched.
    """
    node = source.to_plan()
    if isinstance(node, SourceNode) and node.columns is None:
        return Query(SourceNode(node.name, UNIFIED_COLUMNS))
    return source

# ---------------------------------------------------------------------------
# B.1 Bot elimination (Figure 11)
# ---------------------------------------------------------------------------


def bot_detection_query(source: Query, cfg: BTConfig) -> Query:
    """The bot list: users whose windowed click or search count is high.

    A hopping window (hop = 15 min, width = 6 h) refreshes the list every
    15 minutes from the trailing 6 hours; within each user's group the
    click and keyword sub-streams are counted separately, thresholded,
    and unioned.
    """
    source = _with_schema(source)
    windowed = source.hopping_window(cfg.bot_window, cfg.bot_hop)
    return windowed.group_apply(
        "UserId",
        lambda g: (
            g.where_equals("StreamId", CLICK)
            .count(into="n")
            .where_greater("n", cfg.bot_click_threshold)
            .union(
                g.where_equals("StreamId", KEYWORD)
                .count(into="n")
                .where_greater("n", cfg.bot_search_threshold)
            )
        ),
        label="bot-detect",
    )


def bot_elimination_query(source: Query, cfg: BTConfig) -> Query:
    """Original events minus those of currently flagged bot users."""
    source = _with_schema(source)
    return source.anti_semi_join(
        bot_detection_query(source, cfg), on="UserId", label="bot-elim"
    )


# ---------------------------------------------------------------------------
# B.2 Generating training data (Figure 12)
# ---------------------------------------------------------------------------


def non_click_query(source: Query, cfg: BTConfig) -> Query:
    """Impressions not followed by a click (same user & ad) within d.

    Clicks get their LE moved d into the past (AlterLifetime), so an
    AntiSemiJoin drops every impression with a click in its future
    d-window.
    """
    source = _with_schema(source)
    impressions = source.where_equals("StreamId", IMPRESSION)
    clicks_back = source.where_equals("StreamId", CLICK).shift(
        -cfg.click_horizon, 0
    )
    return impressions.anti_semi_join(
        clicks_back, on=["UserId", "KwAdId"], label="non-clicks"
    )


def labeled_activity_query(source: Query, cfg: BTConfig) -> Query:
    """Click (y=1) and non-click (y=0) examples on one stream S1."""
    source = _with_schema(source)
    nonclicks = non_click_query(source, cfg).project(
        lambda p: {"UserId": p["UserId"], "AdId": p["KwAdId"], "y": 0},
        label="label-nonclick",
        columns=("UserId", "AdId", "y"),
    )
    clicks = (
        source.where_equals("StreamId", CLICK)
        .project(
            lambda p: {"UserId": p["UserId"], "AdId": p["KwAdId"], "y": 1},
            label="label-click",
            columns=("UserId", "AdId", "y"),
        )
    )
    return nonclicks.union(clicks)


def ubp_query(source: Query, cfg: BTConfig) -> Query:
    """Sparse user behavior profiles, refreshed at every user activity.

    Per (UserId, Keyword) group: a tau-window count — exactly the UBP of
    Definition 1 in sparse representation.
    """
    source = _with_schema(source)
    keywords = source.where_equals("StreamId", KEYWORD)
    counts = keywords.group_apply(
        ["UserId", "KwAdId"],
        lambda g: g.window(cfg.ubp_window).count(into="Count"),
        label="ubp-counts",
    )
    return counts.project(
        lambda p: {"UserId": p["UserId"], "Keyword": p["KwAdId"], "Count": p["Count"]},
        label="ubp-rename",
        columns=("UserId", "Keyword", "Count"),
    )


def training_data_query(source: Query, cfg: BTConfig) -> Query:
    """GenTrainData: every click/non-click joined with the user's UBP.

    Output: one point event per (activity, profile keyword) —
    ``{UserId, AdId, y, Keyword, Count}`` — the sparse training row.
    """
    source = _with_schema(source)
    activity = labeled_activity_query(source, cfg)
    ubp = ubp_query(source, cfg)
    return activity.temporal_join(
        ubp,
        on="UserId",
        select=lambda l, r: {
            "UserId": l["UserId"],
            "AdId": l["AdId"],
            "y": l["y"],
            "Keyword": r["Keyword"],
            "Count": r["Count"],
        },
        label="gen-train-data",
        columns=("UserId", "AdId", "y", "Keyword", "Count"),
    )


# ---------------------------------------------------------------------------
# B.3 Feature selection (Figure 13)
# ---------------------------------------------------------------------------


def total_count_query(activity: Query, cfg: BTConfig, horizon: int) -> Query:
    """TotalCount: per-ad click and impression totals over ``horizon``.

    The counts use a hopping window whose hop *covers the elimination
    interval* (Figure 13: "with h covering the time interval over which
    we perform keyword elimination"), so totals refresh once per horizon
    instead of at every event — which also keeps the later join with the
    per-keyword stream linear. One aggregation computes both counters:
    the sum of the 0/1 click label is the click total and the example
    count is the impression total. The one-tick shift aligns events at
    t=0 with the first hop boundary.
    """
    from ..temporal.operators import AggSpec

    return activity.group_apply(
        "AdId",
        lambda g: g.shift(1).hopping_window(horizon, horizon).aggregate(
            AggSpec("sum", "TotalClicks", "y"), AggSpec("count", "TotalImpr")
        ),
        label="total-count",
    )


def per_keyword_count_query(train: Query, cfg: BTConfig, horizon: int) -> Query:
    """PerKWCount: per-(ad, keyword) click and impression counts."""
    from ..temporal.operators import AggSpec

    return train.group_apply(
        ["AdId", "Keyword"],
        lambda g: g.shift(1).hopping_window(horizon, horizon).aggregate(
            AggSpec("sum", "ClicksWith", "y"), AggSpec("count", "ImprWith")
        ),
        label="per-kw-count",
    )


def calc_score_query(per_kw: Query, totals: Query, cfg: BTConfig) -> Query:
    """CalcScore: join per-keyword counts with ad totals and compute z.

    Keywords without sufficient support (fewer than ``min_support``
    clicks with the keyword in the profile) are dropped before the test;
    the final filter keeps keywords with |z| above the threshold.
    """
    joined = per_kw.temporal_join(totals, on="AdId", label="kw-vs-total")
    supported = joined.where(
        lambda p, _s=cfg.min_support: p["ClicksWith"] >= _s,
        label="support-filter",
    )
    scored = supported.project(
        lambda p: {
            "AdId": p["AdId"],
            "Keyword": p["Keyword"],
            "z": keyword_z_score(
                p["ClicksWith"], p["ImprWith"], p["TotalClicks"], p["TotalImpr"]
            ),
        },
        label="calc-score",
        columns=("AdId", "Keyword", "z"),
    )
    return scored.where(
        lambda p, _t=cfg.z_threshold: abs(p["z"]) > _t, label="z-filter"
    )


def feature_selection_query(source: Query, cfg: BTConfig, horizon: int) -> Query:
    """End-to-end KE-z: unified log in, retained (AdId, Keyword, z) out."""
    source = _with_schema(source)
    activity = labeled_activity_query(source, cfg)
    train = training_data_query(source, cfg)
    totals = total_count_query(activity, cfg, horizon)
    per_kw = per_keyword_count_query(train, cfg, horizon)
    return calc_score_query(per_kw, totals, cfg)


# ---------------------------------------------------------------------------
# Query registry (what Figure 14 counts)
# ---------------------------------------------------------------------------

#: name -> one-line description of each temporal query in the BT solution.
BT_QUERY_REGISTRY: Dict[str, str] = {
    "bot-hop-window": "hopping window over the unified stream",
    "bot-click-count": "per-user windowed click count",
    "bot-click-threshold": "click count threshold filter",
    "bot-search-count": "per-user windowed keyword count",
    "bot-search-threshold": "keyword count threshold filter",
    "bot-union": "union of both bot signals",
    "bot-anti-semi-join": "drop events of flagged bot users",
    "nonclick-shift": "move click lifetimes d into the past",
    "nonclick-asj": "impressions without a following click",
    "label-union": "clicks (y=1) union non-clicks (y=0)",
    "ubp-window-count": "per (user, keyword) tau-window counts",
    "traindata-join": "activities joined with sparse UBPs",
    "total-click-count": "per-ad click totals",
    "total-nonclick-count": "per-ad non-click totals",
    "perkw-click-count": "per (ad, keyword) click counts",
    "perkw-nonclick-count": "per (ad, keyword) non-click counts",
    "calcscore-join": "per-keyword counts joined with ad totals",
    "calcscore-udo": "two-proportion z-test UDO",
    "calcscore-filter": "z threshold filter",
    "modelgen-udo": "hopping-window logistic regression UDO",
    "scoring-join": "UBPs joined against the current model synopsis",
}


def query_count() -> int:
    """Number of temporal queries in the BT solution (Figure 14 left)."""
    return len(BT_QUERY_REGISTRY)
