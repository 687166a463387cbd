"""Trace and metrics exporters.

Three formats, one tracer:

* :func:`write_jsonl` — one JSON object per line (``{"type": "span"}`` /
  ``{"type": "metric"}``), the machine-readable dump CI and notebooks
  consume.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format (complete ``"X"`` events on one thread, so
  nesting falls out of time containment). The file loads directly in
  ``chrome://tracing`` or https://ui.perfetto.dev.
* :func:`render_tree` — a terminal summary: the span tree with wall
  times and the most useful attributes inline.

Plus one *comparison* view: :func:`sim_trace_tree`, the canonical
deterministic form of a trace — wall times and scheduling-dependent
attributes stripped, children canonically ordered — which is what the
same-seed identity tests compare across reruns and chaos runs.
"""

from __future__ import annotations

import json
from typing import IO, List, Optional, Union

from .trace import Span, Tracer


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def span_record(span: Span) -> dict:
    """One span as a plain JSON-safe dict (the JSON-lines row)."""
    return {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "category": span.category,
        "depth": span.depth,
        "wall_ms": round(span.wall_seconds * 1e3, 3),
        "attrs": _json_safe(span.attrs),
    }


def write_jsonl(tracer: Tracer, out: Union[str, IO[str]]) -> int:
    """Dump every finished span then every metric, one JSON doc per line.

    Returns the number of lines written. Span lines carry wall times
    (non-deterministic, observability only); metric lines are pure
    functions of the data and reproduce exactly under the same seed.
    """
    lines: List[str] = []
    for span in tracer.finished():
        lines.append(json.dumps(span_record(span), sort_keys=True))
    for metric in tracer.metrics.snapshot():
        lines.append(json.dumps({"type": "metric", **metric}, sort_keys=True))
    text = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        out.write(text)
    return len(lines)


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's spans as a Chrome ``trace_event`` JSON document.

    Every span is on the one ``driver`` row (tid 1): a run is serial.
    Zero-duration spans become instant events (``"ph": "i"``), the
    markers named resolutions use. Categories become the ``cat`` field
    for filtering/coloring.
    """
    events: List[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "name": "process_name",
            "args": {"name": "repro"},
        },
        {
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "name": "thread_name",
            "args": {"name": "driver"},
        },
    ]
    for span in tracer.finished():
        ts = round((span.start - tracer.epoch) * 1e6, 3)
        if span.end == span.start:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": 1,
                    "name": span.name,
                    "cat": span.category or "span",
                    "ts": ts,
                    "args": _json_safe(span.attrs),
                }
            )
        else:
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "name": span.name,
                    "cat": span.category or "span",
                    "ts": ts,
                    "dur": round(span.wall_seconds * 1e6, 3),
                    "args": _json_safe(span.attrs),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Chrome trace to ``path``; returns the event count."""
    doc = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    return len(doc["traceEvents"])


#: Attributes excluded from :func:`sim_trace_tree`: measured wall
#: durations, not functions of the data.
_SCHED_ATTRS = frozenset({"sort_seconds"})


def sim_trace_tree(tracer: Tracer, exclude_categories=()) -> list:
    """The canonical deterministic view of a trace, for equality checks.

    Strips everything measured — wall-clock times, span ids, and the
    attributes in ``_SCHED_ATTRS`` (measured sort durations) — keeping
    names, categories, and the remaining (``sim_*``, row-count,
    byte-count) attributes. Children are ordered by their canonical JSON
    form, not by start time. Two same-seed runs must produce equal
    trees; ``exclude_categories`` drops whole subtrees (e.g.
    ``("resolution",)`` when comparing runs whose contexts differ only
    in a named resolution).
    """
    exclude = frozenset(exclude_categories)
    by_parent: dict = {}
    for span in tracer.finished():
        if span.category in exclude:
            continue
        by_parent.setdefault(span.parent_id, []).append(span)

    def canon(node: dict) -> str:
        return json.dumps(node, sort_keys=True)

    def node(span: Span) -> dict:
        return {
            "name": span.name,
            "category": span.category,
            "attrs": {
                str(k): _json_safe(v)
                for k, v in sorted(span.attrs.items())
                if k not in _SCHED_ATTRS
            },
            "children": sorted(
                (node(c) for c in by_parent.get(span.span_id, ())), key=canon
            ),
        }

    return sorted((node(r) for r in by_parent.get(None, ())), key=canon)


#: Span attributes surfaced inline by :func:`render_tree`, in this order.
_TREE_ATTRS = (
    "events_in",
    "events_out",
    "selectivity",
    "rows_in",
    "rows_out",
    "rows_mapped",
    "shuffle_bytes",
    "skew_ratio",
    "sort_seconds",
    "restarts",
    "quarantined",
    "sim_backoff_seconds",
    "resumed",
    "key",
)


def render_tree(tracer: Tracer, max_depth: Optional[int] = None) -> str:
    """An indented terminal rendering of the span tree.

    ``max_depth`` prunes the tree (0 = roots only); pruned subtrees are
    summarized as ``... (+N spans)``.
    """
    lines: List[str] = []
    by_parent = {}
    for span in tracer.finished():
        by_parent.setdefault(span.parent_id, []).append(span)

    def descendants(span: Span) -> int:
        total = 0
        for child in by_parent.get(span.span_id, ()):
            total += 1 + descendants(child)
        return total

    def visit(span: Span, depth: int):
        attrs = " ".join(
            f"{k}={span.attrs[k]}" for k in _TREE_ATTRS if k in span.attrs
        )
        label = f"{span.category}:{span.name}" if span.category else span.name
        lines.append(
            "  " * depth
            + f"{label}  {span.wall_seconds * 1e3:.1f}ms"
            + (f"  {attrs}" if attrs else "")
        )
        children = by_parent.get(span.span_id, ())
        if max_depth is not None and depth >= max_depth:
            hidden = sum(1 + descendants(c) for c in children)
            if hidden:
                lines.append("  " * (depth + 1) + f"... (+{hidden} spans)")
            return
        for child in children:
            visit(child, depth + 1)

    for root in by_parent.get(None, ()):
        visit(root, 0)
    return "\n".join(lines)
