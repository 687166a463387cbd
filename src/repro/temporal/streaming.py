"""Push-based streaming execution of CQ plans.

This is the deployment mode the paper's queries are "naturally ready"
for (Section III-C.1): the same logical plan that TiMR scales over
offline files here consumes a live feed event by event. Correctness
rests on the temporal algebra — output depends only on event lifetimes
— plus *watermarks* (StreamInsight's CTIs): pushing an event with
timestamp t promises that no earlier event will arrive on that source,
letting every operator emit exactly the outputs that are final.

The engine itself is a thin driver over the shared incremental runtime
(:class:`repro.runtime.Dataflow`): each push feeds one event into the
operator graph and advances it. The batch
:class:`~repro.temporal.Engine` drives the *same* graph in bounded
chunks, so ``pushed outputs + flush`` denote the same temporal relation
as a batch run over the same events by construction — a property the
test suite still checks with hypothesis-generated histories.

Usage::

    stream = StreamingEngine(query)
    for row in live_feed:                  # in timestamp order per source
        for out in stream.push("logs", row):
            deliver(out)
    tail = stream.flush()                  # end of stream

Restrictions: plans containing a *custom* AlterLifetime (opaque lifetime
functions) cannot bound how far output timestamps may precede input
timestamps — an unbounded *future* extent — and are rejected
(:class:`StreamingUnsupported`). An unbounded *past* (count and session
windows, scan UDOs, a GroupApply over them) streams.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from ..runtime.context import DEFAULT_CONTEXT, RunContext
from ..runtime.dataflow import Dataflow, StreamingUnsupported
from .engine import count_operator_events
from .event import Event, decode_row
from .plan import PlanNode
from .query import Query
from .time import MAX_TIME, MIN_TIME

__all__ = [
    "EVENT_POLICIES",
    "QuarantinedEvent",
    "StreamingEngine",
    "StreamingUnsupported",
]

#: Valid values of :class:`StreamingEngine`'s ``event_policy``.
EVENT_POLICIES = ("raise", "drop", "quarantine")


@dataclass
class QuarantinedEvent:
    """A rejected input the engine set aside instead of failing on.

    Attributes:
        source: the source name the item was pushed on.
        item: the original row/event as pushed.
        reason: why it was rejected (too late, malformed, ...).
    """

    source: str
    item: object
    reason: str


class StreamingEngine:
    """Incremental execution of one CQ plan over pushed events.

    ``slack`` enables bounded out-of-order arrival (the disorder handling
    Section II-C notes custom reducers cannot do "without complex data
    structures"): an event may arrive up to ``slack`` ticks later than
    the newest event already pushed on its source. Late-but-in-slack
    events are reorder-buffered and the source watermark trails the
    newest timestamp by the slack, so every downstream result stays
    exact — latency is traded for disorder tolerance. Events later than
    the slack are rejected.

    ``event_policy`` decides what *rejected* means for inputs a live
    feed inevitably produces — events later than the slack allows and
    malformed rows (no usable ``Time``, an empty lifetime):

    * ``"raise"`` (default): fail fast with ``ValueError`` — the
      strict mode batch-equivalence proofs assume.
    * ``"drop"``: silently discard, counting into :attr:`dropped`.
    * ``"quarantine"``: set the offending item aside in
      :attr:`quarantined` with its source and rejection reason — the
      streaming twin of the cluster's dead-letter dataset.

    Accepted events are processed identically under every policy, so
    outputs remain exact over the events that made it in.
    """

    def __init__(
        self,
        query: Union[Query, PlanNode],
        slack: int = 0,
        event_policy: str = "raise",
        *,
        context: Optional[RunContext] = None,
    ):
        if slack < 0:
            raise ValueError("slack must be non-negative")
        if event_policy not in EVENT_POLICIES:
            raise ValueError(
                f"event_policy must be one of {EVENT_POLICIES}, got {event_policy!r}"
            )
        self.slack = slack
        self.event_policy = event_policy
        self.context = context if context is not None else DEFAULT_CONTEXT
        self.quarantined: List[QuarantinedEvent] = []
        self.dropped = 0
        self._reorder: Dict[str, List] = {}
        self._reorder_seq = itertools.count()
        root = query.to_plan() if isinstance(query, Query) else query
        self._root = root
        self._flow = Dataflow(root)
        self._flushed = False
        #: events fed, and rows decoded: ``engine.*`` counters at the flush
        self._input_events = self._decoded_rows = 0

    # -- public API -----------------------------------------------------------

    @property
    def output_watermark(self) -> int:
        return self._flow.output_watermark

    def push(self, source: str, item: Union[Event, dict]) -> List[Event]:
        """Push one event (or a row, decoded as ``Engine.run`` decodes
        it: :func:`~repro.temporal.event.decode_row`) and return new
        final outputs of the query. Events must arrive in LE order per
        source; the push advances that source's watermark to the LE.

        Malformed items (a row the decoder refuses) are handled per the
        engine's ``event_policy``."""
        # unknown sources always raise, whatever the policy
        watermark = self._flow.source_watermark(source)
        event = self._as_event(source, item)
        if event is None:
            return []
        if self.slack:
            return self._push_with_slack(source, event, watermark)
        if event.le < watermark:
            return self._reject(
                source,
                event,
                f"out-of-order push on {source!r}: LE {event.le} < "
                f"watermark {watermark}",
            )
        self._flow.feed(source, [event], event.le)
        self._input_events += 1
        if self.context.tracer.enabled:
            self.context.tracer.metrics.counter(
                "streaming.events_in", source=source
            ).inc()
        return self._emit()

    def _push_with_slack(
        self, source: str, event: Event, source_watermark: int
    ) -> List[Event]:
        """Reorder-buffer a possibly-late event (within ``slack`` ticks)."""
        buffer = self._reorder.setdefault(source, [])
        newest = max(source_watermark + self.slack, event.le)
        watermark = newest - self.slack
        if event.le < watermark:
            return self._reject(
                source,
                event,
                f"event on {source!r} is {watermark - event.le} ticks later "
                f"than the slack of {self.slack} allows",
            )
        heapq.heappush(buffer, (event.le, next(self._reorder_seq), event))
        self._input_events += 1
        if self.context.tracer.enabled:
            self.context.tracer.metrics.counter(
                "streaming.events_in", source=source
            ).inc()
        released: List[Event] = []
        while buffer and buffer[0][0] <= watermark:
            released.append(heapq.heappop(buffer)[2])
        self._flow.feed(source, released, watermark)
        return self._emit()

    def _release_reorder_buffers(self, before: Optional[int] = None) -> None:
        """Feed every buffered event with an LE below ``before`` (all of
        them when ``None``), per source in LE order. Source watermarks
        stay where they are: the caller moves them next."""
        for source, buffer in self._reorder.items():
            released = []
            while buffer and (before is None or buffer[0][0] < before):
                released.append(heapq.heappop(buffer)[2])
            if released:
                self._flow.feed(source, released)

    def advance_to(self, watermark: int) -> List[Event]:
        """Declare every source silent before ``watermark`` (a CTI).

        Under ``slack`` the reorder-buffered events the CTI overtakes
        are released first, so no operator is handed an LE behind a
        watermark it was already given."""
        self._release_reorder_buffers(before=watermark)
        self._flow.set_watermarks(watermark)
        return self._emit()

    def flush(self) -> List[Event]:
        """End of stream: emit everything still buffered."""
        if self._flushed:
            return []
        self._flushed = True
        self._release_reorder_buffers()
        self._flow.set_watermarks(MAX_TIME)
        out = self._emit()
        if self.context.tracer.enabled:
            # the flow's engine counters, as Engine.run adds them
            metrics = self.context.tracer.metrics
            metrics.counter("engine.input_events").inc(self._input_events)
            metrics.counter("engine.decoded_rows").inc(self._decoded_rows)
            count_operator_events(metrics, self._flow, self._root)
            metrics.counter("dataflow.chain_advances").inc(self._flow.chain_advances)
        return out

    def run_all(self, sources: Dict[str, Iterable]) -> List[Event]:
        """Convenience: push entire (merged, LE-ordered) inputs and flush.

        Malformed items are handled per the engine's ``event_policy``,
        as :meth:`push` handles them."""
        tagged = []
        for name, items in sources.items():
            for item in items:
                event = self._as_event(name, item)
                if event is not None:
                    tagged.append((event.le, name, event))
        tagged.sort(key=lambda t: t[0])
        out: List[Event] = []
        for _, name, event in tagged:
            # keep all source watermarks aligned so joins make progress
            self._flow.set_watermarks(event.le)
            out.extend(self.push(name, event))
        out.extend(self.flush())
        return out

    # -- internals --------------------------------------------------------------

    def _as_event(self, source: str, item: Union[Event, dict]) -> Optional[Event]:
        """``item`` as an event, or None once the event policy has
        rejected it as malformed."""
        if isinstance(item, Event):
            return item
        try:
            event = Event(*decode_row(item))
        except Exception as exc:
            self._reject(source, item, f"malformed event: {exc!r}")
            return None
        self._decoded_rows += 1
        return event

    def _reject(self, source: str, item: object, reason: str) -> List[Event]:
        """Apply the event policy to a late or malformed input."""
        if self.context.tracer.enabled:
            self.context.tracer.metrics.counter(
                "streaming.events_rejected",
                source=source,
                policy=self.event_policy,
            ).inc()
        if self.event_policy == "raise":
            raise ValueError(reason)
        if self.event_policy == "quarantine":
            self.quarantined.append(QuarantinedEvent(source, item, reason))
        else:
            self.dropped += 1
        return []

    def _emit(self) -> List[Event]:
        """Advance the dataflow and record streaming metrics."""
        out = self._flow.advance()
        if self.context.tracer.enabled:
            metrics = self.context.tracer.metrics
            if out:
                metrics.counter("streaming.events_out").inc(len(out))
            # Watermark lag: how far finalized output trails the freshest
            # source promise, in *application-time* ticks (deterministic).
            src_w = self._flow.max_source_watermark()
            if MIN_TIME < src_w < MAX_TIME:
                lag = max(0, src_w - self._flow.output_watermark)
                metrics.gauge("streaming.watermark_lag").set(lag)
        return out
