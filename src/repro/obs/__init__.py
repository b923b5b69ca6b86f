"""Observability: hop-by-hop tracing, metrics, exporters.

The layer that turns black-box aggregates into explainable numbers:

- :mod:`.context` — the (trace_id, span_id, parent_span_id) triple
  carried in the wire header across INR hops;
- :mod:`.span` — spans and the deterministic :class:`Tracer`;
- :mod:`.metrics` — the one reader of a stats ``snapshot()`` and the
  canonical label text;
- :mod:`.export` — JSONL and the Chrome trace-event format;
- :mod:`.collector` — the per-run bundle experiments attach: the
  tracer, and the labelled counters and gauges a harvest files.

``obs`` sits at the bottom of the layer DAG (beside ``message``): it
imports nothing from the rest of the system, so every layer above may
use it. All timing flows from the simulator's virtual clock — wall
clocks are banned here, as everywhere, by the ``entropy-taint`` lint
rule.
"""

from .context import NO_PARENT, TRACE_CONTEXT_SIZE, TraceContext
from .collector import ObsCollector
from .export import (
    spans_to_jsonl,
    summarize_spans,
    to_chrome_trace,
    write_canonical_json,
)
from .metrics import stats_fields
from .span import (
    DROP_PREFIX,
    STATUS_OK,
    STATUS_OPEN,
    Span,
    Tracer,
)

__all__ = [
    "DROP_PREFIX",
    "NO_PARENT",
    "ObsCollector",
    "STATUS_OK",
    "STATUS_OPEN",
    "Span",
    "TRACE_CONTEXT_SIZE",
    "TraceContext",
    "Tracer",
    "spans_to_jsonl",
    "stats_fields",
    "summarize_spans",
    "to_chrome_trace",
    "write_canonical_json",
]
