"""Observability: hop-by-hop tracing, metrics, exporters.

The layer that turns black-box aggregates into explainable numbers:

- :mod:`.context` — the (trace_id, span_id, parent_span_id) triple
  carried in the wire header across INR hops;
- :mod:`.span` — spans, the deterministic :class:`Tracer`, span-tree
  well-formedness checks;
- :mod:`.metrics` — the unified Counter/Gauge/Histogram registry with
  labels and deterministic snapshots;
- :mod:`.export` — JSONL, human timeline, Chrome trace-event format;
- :mod:`.collector` — the per-run bundle experiments attach.

``obs`` sits at the bottom of the layer DAG (beside ``message``): it
imports nothing from the rest of the system, so every layer above may
use it. All timing flows from the simulator's virtual clock — wall
clocks are banned here, as everywhere, by the ``entropy-taint`` lint
rule.
"""

from .context import NO_PARENT, TRACE_CONTEXT_SIZE, TraceContext
from .collector import ObsCollector
from .export import (
    render_timeline,
    spans_to_jsonl,
    summarize_spans,
    to_chrome_trace,
    write_canonical_json,
    write_chrome_trace,
    write_spans_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_counts,
)
from .span import (
    DROP_PREFIX,
    STATUS_OK,
    STATUS_OPEN,
    Span,
    Tracer,
    trace_tree_errors,
    well_formed_traces,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DROP_PREFIX",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NO_PARENT",
    "ObsCollector",
    "STATUS_OK",
    "STATUS_OPEN",
    "Span",
    "TRACE_CONTEXT_SIZE",
    "TraceContext",
    "Tracer",
    "merge_counts",
    "render_timeline",
    "spans_to_jsonl",
    "summarize_spans",
    "to_chrome_trace",
    "trace_tree_errors",
    "well_formed_traces",
    "write_canonical_json",
    "write_chrome_trace",
    "write_spans_jsonl",
]
