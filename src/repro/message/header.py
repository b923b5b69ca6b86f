"""The INS packet format (Section 4, Figure 10).

The header carries a version, the binding bit-flag ``B`` (early vs late
binding), the delivery bit-flag ``D`` (intentional anycast vs
multicast), byte offsets to the variable-length source name-specifier,
destination name-specifier and application data (so a forwarding agent
can locate the end of the name-specifiers without parsing them), a hop
limit decremented at each overlay hop, and a cache lifetime (zero
disallows caching).

One deliberate widening versus the 32-bit figure: offsets are 32-bit
here rather than 16, so large payloads (e.g. Camera images) fit without
a second fragment format the paper does not describe.

Extension (§9 of docs/PROTOCOL.md): a traced packet sets a flag bit and
carries a 24-byte trace context — (trace_id, span_id, parent_span_id),
Dapper-style — between the fixed header and the source name-specifier.
Untraced packets are byte-identical to the pre-extension format, so
tracing is zero-cost on the wire when off, and old frames still parse.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

from ..obs import TRACE_CONTEXT_SIZE, TraceContext

#: Protocol version emitted by this implementation.
INS_VERSION = 1

#: Default hop limit for late-binding messages traversing the overlay.
DEFAULT_HOP_LIMIT = 32

#: struct layout: version u8, flags u8, unused u16, src/dst/data offsets
#: u32, hop limit u16, cache lifetime u16 -> 20-byte fixed header.
_HEADER = struct.Struct("!BBHIIIHH")

HEADER_SIZE = _HEADER.size

#: Where the hop limit sits, for the forwarder that changes nothing else.
_HOP_LIMIT = struct.Struct("!H")
_HOP_LIMIT_OFFSET = struct.calcsize("!BBHIII")

_FLAG_LATE_BINDING = 0x01
_FLAG_MULTICAST = 0x02
#: Extension flag (Section 3.2 caching): the sender of this message is
#: willing to have it answered from an INR's packet cache. Responses
#: use ``cache_lifetime`` instead to permit being stored.
_FLAG_ACCEPT_CACHED = 0x04
#: Extension flag (PROTOCOL.md §9): a 24-byte trace context follows the
#: fixed header (before the source name-specifier).
_FLAG_TRACE_CONTEXT = 0x08
#: The flag bits this version assigns no meaning to (sent as zero).
_FLAGS_RESERVED = 0xF0


class Binding(enum.Enum):
    """The B bit-flag: when the name-to-location binding happens."""

    EARLY = "early"
    LATE = "late"


class Delivery(enum.Enum):
    """The D bit-flag: anycast ("any") vs multicast ("all") delivery."""

    ANYCAST = "any"
    MULTICAST = "all"


class HeaderError(ValueError):
    """A packet's fixed header is malformed or inconsistent."""


@dataclass(frozen=True)
class Header:
    """The decoded fixed header of an INS packet."""

    version: int
    binding: Binding
    delivery: Delivery
    source_offset: int
    destination_offset: int
    data_offset: int
    hop_limit: int
    cache_lifetime: int
    accept_cached: bool = False
    #: Optional per-request trace context (PROTOCOL.md §9). ``None``
    #: packs to the exact pre-extension byte layout.
    trace: Optional[TraceContext] = None
    #: False for a received header that set the unused u16 or a reserved
    #: flag bit. Both are ignored, so it decodes like any other — but
    #: :meth:`pack` writes them as zero and would not reproduce it.
    reserved_clear: bool = field(default=True, repr=False, compare=False)

    @property
    def wire_length(self) -> int:
        """Bytes this header occupies on the wire (fixed + trace)."""
        return HEADER_SIZE + (TRACE_CONTEXT_SIZE if self.trace else 0)

    def pack(self) -> bytes:
        """Serialize the header (and trace context, when present)."""
        out = bytearray(self.wire_length)
        self.pack_into(out, 0)
        return bytes(out)

    def pack_into(self, buffer, offset: int = 0) -> int:
        """Serialize in place at ``offset`` of a writable buffer.

        Returns the offset just past the written bytes. This is the
        zero-copy path :meth:`InsMessage.encode` uses to lay the header
        directly into the one packet buffer instead of concatenating
        intermediate ``bytes`` objects.
        """
        flags = 0
        if self.binding is Binding.LATE:
            flags |= _FLAG_LATE_BINDING
        if self.delivery is Delivery.MULTICAST:
            flags |= _FLAG_MULTICAST
        if self.accept_cached:
            flags |= _FLAG_ACCEPT_CACHED
        if self.trace is not None:
            flags |= _FLAG_TRACE_CONTEXT
        _HEADER.pack_into(
            buffer,
            offset,
            self.version,
            flags,
            0,
            self.source_offset,
            self.destination_offset,
            self.data_offset,
            self.hop_limit,
            self.cache_lifetime,
        )
        end = offset + HEADER_SIZE
        if self.trace is not None:
            self.trace.pack_into(buffer, end)
            end += TRACE_CONTEXT_SIZE
        return end

    @classmethod
    def unpack(cls, data) -> "Header":
        """Decode the fixed header from the front of ``data``.

        Accepts any bytes-like buffer, including a ``memoryview`` over a
        larger frame; ``unpack_from`` reads the fields without slicing.
        """
        if len(data) < HEADER_SIZE:
            raise HeaderError(
                f"packet too short for header: {len(data)} < {HEADER_SIZE}"
            )
        (
            version,
            flags,
            _unused,
            source_offset,
            destination_offset,
            data_offset,
            hop_limit,
            cache_lifetime,
        ) = _HEADER.unpack_from(data)
        if version != INS_VERSION:
            raise HeaderError(f"unsupported INS version {version}")
        trace = None
        names_floor = HEADER_SIZE
        if flags & _FLAG_TRACE_CONTEXT:
            names_floor = HEADER_SIZE + TRACE_CONTEXT_SIZE
            if len(data) < names_floor:
                raise HeaderError(
                    "trace flag set but packet too short for trace "
                    f"context: {len(data)} < {names_floor}"
                )
            trace = TraceContext.unpack(data, HEADER_SIZE)
        if not (
            names_floor <= source_offset <= destination_offset <= data_offset <= len(data)
        ):
            raise HeaderError(
                "header offsets out of order: "
                f"{source_offset}, {destination_offset}, {data_offset} "
                f"within packet of {len(data)} bytes"
                + (" (with trace context)" if trace is not None else "")
            )
        return cls(
            version=version,
            binding=Binding.LATE if flags & _FLAG_LATE_BINDING else Binding.EARLY,
            delivery=Delivery.MULTICAST if flags & _FLAG_MULTICAST else Delivery.ANYCAST,
            source_offset=source_offset,
            destination_offset=destination_offset,
            data_offset=data_offset,
            hop_limit=hop_limit,
            cache_lifetime=cache_lifetime,
            accept_cached=bool(flags & _FLAG_ACCEPT_CACHED),
            trace=trace,
            reserved_clear=not (_unused or flags & _FLAGS_RESERVED),
        )


def patch_for_next_hop(
    frame, hop_limit: int, trace: Optional[TraceContext] = None
) -> bytes:
    """A copy of ``frame`` as the next overlay hop must see it: the hop
    limit field set to ``hop_limit`` and, when ``trace`` is given, that
    context over the one the frame carries (it must carry one — the
    size does not change). Every other byte is the frame's own."""
    out = bytearray(frame)
    _HOP_LIMIT.pack_into(out, _HOP_LIMIT_OFFSET, hop_limit)
    if trace is not None:
        trace.pack_into(out, HEADER_SIZE)
    return bytes(out)
