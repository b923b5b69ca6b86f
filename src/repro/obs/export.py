"""Exporters: JSONL dumps, a human timeline, Chrome trace events.

Three consumers, three formats:

- **JSONL / JSON** (:func:`write_spans_jsonl`,
  :func:`write_canonical_json`) — machine-readable artifacts checked
  into ``benchmarks/results`` and uploaded by CI; one span per line,
  stable key order. Every ``BENCH_*.json`` writer in the repository
  ends in :func:`write_canonical_json`.
- **timeline** (:func:`render_timeline`) — a human-readable rendering
  of one trace's span tree, indented by causality, for terminal
  debugging of a single slow or dropped request.
- **Chrome trace events** (:func:`to_chrome_trace`,
  :func:`write_chrome_trace`) — the ``chrome://tracing`` / Perfetto
  JSON schema, so a whole-domain run can be opened in a real trace
  viewer: one row per node, complete ("X") events per span,
  microsecond timestamps.

All output is a pure function of the span/metric state, so same-seed
runs export byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .span import Span

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def spans_to_jsonl(spans: Sequence[Span]) -> str:
    """One sorted-key JSON object per line, in (start, span_id) order."""
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    return "".join(
        json.dumps(span.as_dict(), sort_keys=True) + "\n" for span in ordered
    )


def write_spans_jsonl(path: PathLike, spans: Sequence[Span]) -> None:
    with open(path, "w") as handle:
        handle.write(spans_to_jsonl(spans))


def write_canonical_json(path: PathLike, payload: dict) -> None:
    """Write ``payload`` as canonical JSON: sorted keys, two-space
    indent, trailing newline — equal payloads give byte-identical
    files, the property the determinism checks diff on."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Human timeline
# ----------------------------------------------------------------------
def render_timeline(
    spans: Sequence[Span], trace_id: Optional[int] = None
) -> str:
    """Indented causal rendering of one trace (or every trace).

    ::

        trace 3 (2 spans, 1.204ms)
          0.000000s +1.204ms client.request client-1 ok
            0.000412s +0.310ms inr.resolve inr-2 ok
    """
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    trace_ids = [trace_id] if trace_id is not None else sorted(by_trace)
    lines: List[str] = []
    for tid in trace_ids:
        members = by_trace.get(tid, [])
        if not members:
            continue
        start = min(span.start for span in members)
        stop = max(span.end if span.end is not None else span.start
                   for span in members)
        lines.append(
            f"trace {tid} ({len(members)} spans, "
            f"{(stop - start) * 1000:.3f}ms)"
        )
        children: Dict[int, List[Span]] = {}
        for span in members:
            children.setdefault(span.parent_span_id, []).append(span)
        known = {span.span_id for span in members}

        def emit(span: Span, depth: int) -> None:
            lines.append(
                f"{'  ' * (depth + 1)}{span.start:.6f}s "
                f"+{span.duration * 1000:.3f}ms {span.name} "
                f"{span.node} {span.status}"
                + (f" [{', '.join(t for _t, t in span.events)}]"
                   if span.events else "")
            )
            for child in sorted(
                children.get(span.span_id, []),
                key=lambda s: (s.start, s.span_id),
            ):
                emit(child, depth + 1)

        # Roots plus orphans (parent outside this dump) at depth 0.
        tops = [
            span for span in members
            if span.is_root or span.parent_span_id not in known
        ]
        for top in sorted(tops, key=lambda s: (s.start, s.span_id)):
            emit(top, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def to_chrome_trace(spans: Sequence[Span]) -> dict:
    """The ``chrome://tracing`` / Perfetto JSON object for ``spans``.

    Nodes map to pids (one process row per simulated host), traces map
    to tids within the row, and every span becomes a complete ("X")
    event with microsecond timestamps. Unfinished spans export with
    zero duration and an ``unfinished`` arg rather than vanishing.
    """
    nodes = sorted({span.node for span in spans})
    pid_of = {node: index + 1 for index, node in enumerate(nodes)}
    events: List[dict] = []
    for node in nodes:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid_of[node],
                "tid": 0,
                "args": {"name": node or "(unknown node)"},
            }
        )
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_span_id": span.parent_span_id,
            "status": span.status,
        }
        for key in sorted(span.tags):
            args[f"tag.{key}"] = span.tags[key]
        if span.events:
            args["events"] = [f"{t:.6f}s {text}" for t, text in span.events]
        if not span.finished:
            args["unfinished"] = True
        events.append(
            {
                "name": span.name,
                "cat": span.status,
                "ph": "X",
                "pid": pid_of[span.node],
                "tid": span.trace_id,
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: PathLike, spans: Sequence[Span]) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(spans), handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Summaries embedded in BENCH_*.json artifacts
# ----------------------------------------------------------------------
def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(
        len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1))))
    )
    return sorted_values[index]


def summarize_spans(spans: Sequence[Span]) -> dict:
    """The span-derived numbers a benchmark artifact embeds.

    Per span name: count and p50/p95/p99 duration (seconds); plus drop
    attribution (``drops_*`` causes seen as span statuses, with counts)
    and trace-level shape (traces, spans, max tree depth observed as
    hops per trace).
    """
    by_name: Dict[str, List[float]] = {}
    drops: Dict[str, int] = {}
    traces: Dict[int, int] = {}
    for span in spans:
        if span.finished:
            by_name.setdefault(span.name, []).append(span.duration)
        if span.is_drop:
            cause = span.drop_cause
            drops[cause] = drops.get(cause, 0) + 1
        traces[span.trace_id] = traces.get(span.trace_id, 0) + 1
    summary_by_name = {}
    for name in sorted(by_name):
        durations = sorted(by_name[name])
        summary_by_name[name] = {
            "count": len(durations),
            "p50_s": round(_percentile(durations, 0.50), 9),
            "p95_s": round(_percentile(durations, 0.95), 9),
            "p99_s": round(_percentile(durations, 0.99), 9),
        }
    return {
        "spans": len(spans),
        "traces": len(traces),
        "max_spans_per_trace": max(traces.values()) if traces else 0,
        "by_name": summary_by_name,
        "drop_attribution": {cause: drops[cause] for cause in sorted(drops)},
    }
