"""The trace context: causal metadata carried across hops.

A :class:`TraceContext` is the Dapper-style triple (trace_id, span_id,
parent_span_id) that rides in the wire header of an INS packet (and as
an optional field of control-plane requests) so every hop a request
takes can attach its span to the same causal tree. Identifiers are
plain integers allocated by the :class:`~.span.Tracer` from counters,
never from wall clocks or OS entropy, so two same-seed runs assign
byte-identical ids.

The wire form is three unsigned 64-bit big-endian integers (24 bytes),
appended to the fixed packet header only when the sender is tracing —
untraced packets carry zero extra bytes (see ``docs/PROTOCOL.md`` §9).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: struct layout of the on-wire trace context: trace, span, parent.
_WIRE = struct.Struct("!QQQ")

#: Bytes a trace context occupies on the wire.
TRACE_CONTEXT_SIZE = _WIRE.size

#: ``parent_span_id`` of a root span (no parent).
NO_PARENT = 0


@dataclass(frozen=True)
class TraceContext:
    """Identifies one span within one causal trace."""

    trace_id: int
    span_id: int
    parent_span_id: int = NO_PARENT

    def pack(self) -> bytes:
        """Serialize to the 24-byte wire form."""
        return _WIRE.pack(self.trace_id, self.span_id, self.parent_span_id)

    def pack_into(self, buffer, offset: int = 0) -> None:
        """Serialize in place at ``offset`` within a writable buffer."""
        _WIRE.pack_into(
            buffer, offset, self.trace_id, self.span_id, self.parent_span_id
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "TraceContext":
        """Decode a context packed at ``offset`` within ``data``."""
        trace_id, span_id, parent_span_id = _WIRE.unpack_from(data, offset)
        return cls(
            trace_id=trace_id, span_id=span_id, parent_span_id=parent_span_id
        )
