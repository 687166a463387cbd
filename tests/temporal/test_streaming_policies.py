"""Tests for the streaming engine's late/malformed event policies.

A live feed inevitably produces events the engine cannot accept: rows
without a usable ``Time`` and events later than the slack allows. The
``event_policy`` decides whether those fail fast (``raise``), vanish
(``drop``), or land in a dead-letter list (``quarantine``) — accepted
events must be processed identically under every policy.
"""

import pytest

from repro.temporal import Query, normalize
from repro.temporal.streaming import (
    EVENT_POLICIES,
    QuarantinedEvent,
    StreamingEngine,
)


def counting_query():
    return Query.source("s").window(100).count(into="n")


GOOD = [{"Time": 10}, {"Time": 30}, {"Time": 60}]


class TestPolicyValidation:
    def test_known_policies(self):
        assert set(EVENT_POLICIES) == {"raise", "drop", "quarantine"}
        for policy in EVENT_POLICIES:
            StreamingEngine(counting_query(), event_policy=policy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="event_policy"):
            StreamingEngine(counting_query(), event_policy="ignore")

    def test_unknown_source_raises_under_every_policy(self):
        for policy in EVENT_POLICIES:
            engine = StreamingEngine(counting_query(), event_policy=policy)
            with pytest.raises(KeyError, match="unknown source"):
                engine.push("nope", {"Time": 1})


class TestMalformedEvents:
    BAD = [{"v": 1}, {"Time": "noon"}, {"Time": None}]

    @pytest.mark.parametrize("bad", BAD)
    def test_raise_policy_fails_fast(self, bad):
        engine = StreamingEngine(counting_query())
        with pytest.raises(ValueError, match="malformed event"):
            engine.push("s", bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_drop_policy_counts(self, bad):
        engine = StreamingEngine(counting_query(), event_policy="drop")
        assert engine.push("s", bad) == []
        assert engine.dropped == 1
        assert engine.quarantined == []

    @pytest.mark.parametrize("bad", BAD)
    def test_quarantine_policy_keeps_evidence(self, bad):
        engine = StreamingEngine(counting_query(), event_policy="quarantine")
        assert engine.push("s", bad) == []
        assert engine.dropped == 0
        (record,) = engine.quarantined
        assert isinstance(record, QuarantinedEvent)
        assert record.source == "s"
        assert record.item == bad
        assert "malformed event" in record.reason

    @pytest.mark.parametrize("policy", ["drop", "quarantine"])
    @pytest.mark.parametrize("bad", BAD)
    def test_run_all_applies_the_policy(self, policy, bad):
        """``run_all`` checks rows as ``push`` does: a malformed row is
        dropped or quarantined, and the accepted rows give the output
        they give alone."""
        engine = StreamingEngine(counting_query(), event_policy=policy)
        out = engine.run_all({"s": [GOOD[0], bad, *GOOD[1:]]})
        expected = StreamingEngine(counting_query()).run_all({"s": GOOD})
        assert normalize(out) == normalize(expected)
        if policy == "drop":
            assert engine.dropped == 1
            assert engine.quarantined == []
        else:
            assert engine.dropped == 0
            (record,) = engine.quarantined
            assert (record.source, record.item) == ("s", bad)
            assert "malformed event" in record.reason

    @pytest.mark.parametrize("bad", BAD)
    def test_run_all_raise_policy_fails_fast(self, bad):
        engine = StreamingEngine(counting_query())
        with pytest.raises(ValueError, match="malformed event"):
            engine.run_all({"s": [GOOD[0], bad]})


class TestLateEvents:
    def test_raise_policy_rejects_out_of_order(self):
        engine = StreamingEngine(counting_query())
        engine.push("s", {"Time": 50})
        with pytest.raises(ValueError, match="out-of-order"):
            engine.push("s", {"Time": 10})

    def test_drop_policy_discards_out_of_order(self):
        engine = StreamingEngine(counting_query(), event_policy="drop")
        engine.push("s", {"Time": 50})
        assert engine.push("s", {"Time": 10}) == []
        assert engine.dropped == 1

    def test_quarantine_policy_records_out_of_order(self):
        engine = StreamingEngine(counting_query(), event_policy="quarantine")
        engine.push("s", {"Time": 50})
        engine.push("s", {"Time": 10})
        (record,) = engine.quarantined
        assert "out-of-order" in record.reason

    def test_slack_absorbs_mild_disorder_under_every_policy(self):
        for policy in EVENT_POLICIES:
            engine = StreamingEngine(
                counting_query(), slack=30, event_policy=policy
            )
            engine.push("s", {"Time": 50})
            engine.push("s", {"Time": 40})  # within slack: accepted
            engine.flush()
            assert engine.dropped == 0
            assert engine.quarantined == []

    def test_beyond_slack_applies_policy(self):
        strict = StreamingEngine(counting_query(), slack=5)
        strict.push("s", {"Time": 50})
        with pytest.raises(ValueError, match="slack"):
            strict.push("s", {"Time": 10})

        lenient = StreamingEngine(
            counting_query(), slack=5, event_policy="quarantine"
        )
        lenient.push("s", {"Time": 50})
        lenient.push("s", {"Time": 10})
        (record,) = lenient.quarantined
        assert "slack" in record.reason


class TestAcceptedEventsUnaffected:
    @pytest.mark.parametrize("policy", EVENT_POLICIES)
    def test_clean_stream_identical_across_policies(self, policy):
        baseline = StreamingEngine(counting_query()).run_all({"s": list(GOOD)})
        engine = StreamingEngine(counting_query(), event_policy=policy)
        out = []
        for row in GOOD:
            out.extend(engine.push("s", row))
        out.extend(engine.flush())
        assert normalize(out) == normalize(baseline)

    def test_survivors_still_exact_after_quarantine(self):
        engine = StreamingEngine(counting_query(), event_policy="quarantine")
        out = []
        for row in [{"Time": 10}, {"bad": 1}, {"Time": 30}, {"Time": 60}]:
            out.extend(engine.push("s", row))
        out.extend(engine.flush())
        baseline = StreamingEngine(counting_query()).run_all({"s": list(GOOD)})
        assert normalize(out) == normalize(baseline)
        assert len(engine.quarantined) == 1
