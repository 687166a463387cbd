"""Metrics: deterministic counters, gauges, and histograms.

The registry holds only values that are pure functions of the data —
event counts, row counts, byte sizes, simulated seconds, skew ratios —
so a seeded pipeline run produces a byte-identical metrics snapshot
every time. Wall-clock durations deliberately live on *spans*
(:mod:`repro.obs.trace`), never in the registry; that split is what lets
the acceptance check "same seed ⇒ same metrics" hold while traces still
show real latencies.

Two escape hatches qualify that rule without weakening it:

* Instruments can be created with ``deterministic=False`` — for values
  that are real measurements (per-task wall durations, pipe payload
  bytes that depend on which replies survived chaos). They appear in the
  default :meth:`MetricsRegistry.snapshot` but are excluded by
  ``snapshot(deterministic_only=True)``, which is what the same-seed
  identity tests compare.
* Worker processes record into their own registry and ship its
  :meth:`~MetricsRegistry.export_state` back with results; the driver
  folds it in with :meth:`~MetricsRegistry.merge_state` in a
  deterministic order (worker id), so cross-process
  metrics stay reproducible.

Histograms use fixed bucket boundaries chosen at construction (default
:data:`DEFAULT_BUCKETS`), so bucket counts are reproducible across runs
and machines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram boundaries: counts/sizes spanning one event to 10M.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    1_000_000,
    10_000_000,
)

#: Histogram boundaries for wall durations in seconds (µs to minutes).
TIME_BUCKETS: Tuple[float, ...] = (
    0.000001,
    0.00001,
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value", "deterministic")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems, deterministic: bool = True):
        self.name = name
        self.labels = labels
        self.value = 0
        self.deterministic = deterministic

    def inc(self, delta=1) -> None:
        if delta < 0:
            raise ValueError("counters only go up")
        self.value += delta

    def snapshot_value(self):
        return self.value


class Gauge:
    """Last-written value (watermark lag, skew ratio, ...)."""

    __slots__ = ("name", "labels", "value", "deterministic")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems, deterministic: bool = True):
        self.name = name
        self.labels = labels
        self.value = 0
        self.deterministic = deterministic

    def set(self, value) -> None:
        self.value = value

    def snapshot_value(self):
        return self.value


class Histogram:
    """Fixed-boundary histogram: deterministic buckets plus sum/count."""

    __slots__ = (
        "name", "labels", "buckets", "counts", "count", "total", "deterministic",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        deterministic: bool = True,
    ):
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket = +inf overflow
        self.count = 0
        self.total = 0
        self.deterministic = deterministic

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot_value(self):
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {
                **{str(b): c for b, c in zip(self.buckets, self.counts)},
                "+inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Get-or-create home of every instrument, keyed by (name, labels)."""

    enabled = True

    def __init__(self):
        self._instruments: Dict[Tuple[str, str, LabelItems], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        key = (cls.kind, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, key[2], **kwargs)
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, deterministic: bool = True, **labels) -> Counter:
        return self._get(Counter, name, labels, deterministic=deterministic)

    def gauge(self, name: str, deterministic: bool = True, **labels) -> Gauge:
        return self._get(Gauge, name, labels, deterministic=deterministic)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        deterministic: bool = True,
        **labels,
    ) -> Histogram:
        return self._get(
            Histogram, name, labels, buckets=buckets, deterministic=deterministic
        )

    def snapshot(self, deterministic_only: bool = False) -> List[dict]:
        """Every instrument as a plain dict, deterministically ordered.

        ``deterministic_only`` drops instruments created with
        ``deterministic=False`` (wall durations, chaos-dependent byte
        counts) — the view the same-seed identity suite compares.
        """
        out = []
        for (kind, name, labels) in sorted(self._instruments):
            inst = self._instruments[(kind, name, labels)]
            if deterministic_only and not inst.deterministic:
                continue
            out.append(
                {
                    "kind": kind,
                    "name": name,
                    "labels": dict(labels),
                    "value": inst.snapshot_value(),
                }
            )
        return out

    # -- cross-process shipping ----------------------------------------------

    def export_state(self) -> List[tuple]:
        """The registry as plain picklable tuples, deterministically ordered.

        Workers call this to ship their metrics back over the result
        pipe; the driver folds the state in with :meth:`merge_state`.
        Each record is ``(kind, name, labels, deterministic, payload)``
        where the payload is the counter/gauge value or, for histograms,
        ``(buckets, counts, count, total)``.
        """
        out = []
        for (kind, name, labels) in sorted(self._instruments):
            inst = self._instruments[(kind, name, labels)]
            if kind == "histogram":
                payload = (inst.buckets, tuple(inst.counts), inst.count, inst.total)
            else:
                payload = inst.value
            out.append((kind, name, labels, inst.deterministic, payload))
        return out

    def merge_state(self, state: Sequence[tuple]) -> None:
        """Fold a worker's :meth:`export_state` into this registry.

        Counters and histograms add; gauges take the shipped value (call
        in a deterministic worker order so last-write-wins is stable).
        """
        for kind, name, labels, deterministic, payload in state:
            key = (kind, name, labels)
            inst = self._instruments.get(key)
            if kind == "counter":
                if inst is None:
                    inst = Counter(name, labels, deterministic=deterministic)
                    self._instruments[key] = inst
                inst.value += payload
            elif kind == "gauge":
                if inst is None:
                    inst = Gauge(name, labels, deterministic=deterministic)
                    self._instruments[key] = inst
                inst.value = payload
            else:
                buckets, counts, count, total = payload
                if inst is None:
                    inst = Histogram(
                        name, labels, buckets=buckets, deterministic=deterministic
                    )
                    self._instruments[key] = inst
                elif inst.buckets != tuple(buckets):
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge: "
                        f"{inst.buckets} != {tuple(buckets)}"
                    )
                for i, c in enumerate(counts):
                    inst.counts[i] += c
                inst.count += count
                inst.total += total


class _NullInstrument:
    """Accepts every recording call and remembers nothing."""

    __slots__ = ()

    def inc(self, delta=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Registry twin of the null tracer: shared no-op instruments."""

    enabled = False

    def counter(self, name: str, deterministic: bool = True, **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, deterministic: bool = True, **labels):
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        deterministic: bool = True,
        **labels,
    ):
        return _NULL_INSTRUMENT

    def snapshot(self, deterministic_only: bool = False) -> List[dict]:
        return []

    def export_state(self) -> List[tuple]:
        return []

    def merge_state(self, state) -> None:
        pass


#: Process-wide no-op registry (the ``metrics`` of :data:`NULL_TRACER`).
NULL_REGISTRY = NullRegistry()
