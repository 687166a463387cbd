"""Streaming model generation and scoring (Section IV-B.4, implementation).

The paper's fully-incremental deployment shape: per ad, a hopping-window
UDO periodically re-learns the logistic regression from the examples in
its window (hop size = how often to re-learn, window size = how much
history to learn from); the emitted model weights are valid until the
next rebuild, so they sit in the right synopsis of a TemporalJoin and
every new profile arriving on the left is scored against the *current*
model. The exact same queries back-test over offline logs and serve a
live feed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..temporal.event import Event
from ..temporal.query import Query
from .examples import Example
from .model import LogisticModel, ModelTrainer
from .schema import BTConfig


def example_events(examples: Iterable[Example]) -> List[Event]:
    """Examples as point events ``{UserId, AdId, y, Features}``.

    The ``Features`` column holds the sparse reduced profile dict — the
    payload a production scorer would carry per impression opportunity.
    """
    events = [
        Event.point(
            ex.time,
            {"UserId": ex.user, "AdId": ex.ad, "y": ex.y, "Features": ex.features},
        )
        for ex in sorted(examples, key=lambda e: (e.time, e.user, e.ad, e.y))
    ]
    return events


def model_generation_query(
    source: Query,
    cfg: Optional[BTConfig] = None,
    trainer: Optional[ModelTrainer] = None,
) -> Query:
    """Per-ad periodic LR re-learning as a hopping-window UDO.

    Emits, at every hop boundary, a model event ``{w0, w}`` (intercept
    and weight dict) alive until the next boundary.
    """
    cfg = cfg or BTConfig()
    trainer = trainer or ModelTrainer()

    def relearn(window_payloads: List[dict], boundary: int) -> Iterable[dict]:
        # the identity transform mutates nothing, so profiles are shared
        examples = [
            Example(
                user=p["UserId"], ad=p["AdId"], time=0, y=p["y"],
                features=p["Features"],
            )
            for p in window_payloads
        ]
        if not examples:
            return
        ad = examples[0].ad
        # only w0/w leave this UDO: skip fit's calibration and stats passes
        model = trainer.fit_weights(ad, examples, lambda _ad, f: f)
        weights = {
            name: float(model.weights[idx])
            for name, idx in model.feature_index.items()
        }
        yield {"w0": model.intercept, "w": weights}

    return source.group_apply(
        "AdId",
        lambda g: g.udo_hopping(
            cfg.model_window, cfg.model_hop, relearn, label="relearn-lr"
        ),
        label="model-gen",
    )


def scoring_query(profiles: Query, models: Query) -> Query:
    """Score each profile event against the currently valid ad model.

    The models stream sits in the join synopsis; every profile point
    event on the left produces a prediction against the model whose
    lifetime covers the profile's timestamp.
    """

    def score(profile: dict, model: dict) -> dict:
        s = model["w0"]
        for name, value in profile["Features"].items():
            s += model["w"].get(name, 0.0) * value
        import math

        return {
            "UserId": profile["UserId"],
            "AdId": profile["AdId"],
            "y": profile["y"],
            "Prediction": 1.0 / (1.0 + math.exp(-s)),
        }

    return profiles.temporal_join(models, on="AdId", select=score, label="score")


def rank_ads_for_user(
    models: Dict[str, LogisticModel], features: Dict[str, float], transform
) -> List[tuple]:
    """Offline helper: rank all ad classes by calibrated CTR for a profile.

    This is the ad-delivery decision of Figure 10: score the user's UBP
    against every per-ad model and sort by expected CTR.
    """
    ranked = [
        (model.predict_ctr(transform(ad, features)), ad)
        for ad, model in models.items()
    ]
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return [(ad, score) for score, ad in ranked]
