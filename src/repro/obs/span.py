"""Spans and the tracer that records them.

A :class:`Span` covers one unit of causally-attributed work — a client
request from issue to settle, or one INR hop from packet arrival to the
forwarding/delivery/drop decision. Spans form trees through the
``parent_span_id`` carried by :class:`~.context.TraceContext`; the root
span of a trace has parent ``0``.

The :class:`Tracer` is deliberately dumb: it hands out counter-based
ids, timestamps spans with the clock it was constructed with (always
the simulator's virtual ``now`` in this repo — wall clocks are banned
everywhere by the ``entropy-taint`` lint rule), and keeps every span in
memory for the
exporters. There is no sampling; simulations are small enough to keep
everything, and determinism matters more than memory here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from .context import NO_PARENT, TraceContext

#: Span status while still open; exporters treat it as "unfinished".
STATUS_OPEN = "open"

#: The happy-path terminal status.
STATUS_OK = "ok"

#: Prefix for statuses that attribute a packet drop to its cause, e.g.
#: ``drop:no-route`` mirroring ``InrStats.drops_no_route``.
DROP_PREFIX = "drop:"


@dataclass
class Span:
    """One timed, attributed unit of work inside a trace."""

    trace_id: int
    span_id: int
    parent_span_id: int
    name: str
    node: str
    start: float
    end: Optional[float] = None
    status: str = STATUS_OPEN
    tags: Dict[str, object] = field(default_factory=dict)
    #: timestamped free-form annotations, in event order.
    events: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def context(self) -> TraceContext:
        """The context a child hop should carry: this span as parent."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_span_id=self.parent_span_id,
        )

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def is_drop(self) -> bool:
        return self.status.startswith(DROP_PREFIX)

    @property
    def drop_cause(self) -> Optional[str]:
        """The ``drops_*`` cause when this span recorded a drop."""
        return self.status[len(DROP_PREFIX):] if self.is_drop else None

    def annotate(self, time: float, text: str) -> None:
        """Append a timestamped note (retry attempts, next hops...)."""
        self.events.append((time, text))

    def as_dict(self) -> dict:
        """Stable-key-order dict form for the JSONL exporter."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "tags": {key: self.tags[key] for key in sorted(self.tags)},
            "events": [list(event) for event in self.events],
        }


ParentRef = Union[TraceContext, Span, None]


class Tracer:
    """Allocates span ids, timestamps spans, and retains them.

    ``clock`` must be the simulation's virtual clock (``lambda:
    sim.now``); ids come from counters so a fixed seed yields identical
    traces. A tracer is shared by every process in a domain — the
    simulation is single-threaded, so no locking is needed.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self.spans: List[Span] = []

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        node: str = "",
        parent: ParentRef = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a span; a ``parent`` of None starts a fresh trace."""
        if parent is None:
            trace_id = next(self._trace_ids)
            parent_span_id = NO_PARENT
        else:
            trace_id = parent.trace_id
            parent_span_id = parent.span_id
        span = Span(
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_span_id=parent_span_id,
            name=name,
            node=node,
            start=self._clock(),
            tags=dict(tags) if tags else {},
        )
        self.spans.append(span)
        return span

    def end_span(self, span: Span, status: str = STATUS_OK) -> Span:
        """Close a span; idempotent (the first close wins)."""
        if span.end is None:
            span.end = self._clock()
            span.status = status
        return span

    def annotate(self, span: Span, text: str) -> None:
        span.annotate(self._clock(), text)
