"""Whole INS packets: header + name-specifiers + opaque data.

:class:`InsMessage` is the application-visible object; ``encode`` lays
it out exactly as Figure 10 describes (fixed header, then the two
wire-format name-specifiers at the recorded offsets, then data) and
``decode`` reverses it. INRs never touch the data section — the offsets
exist precisely so the forwarding agent can skip it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..naming import NameSpecifier
from ..obs import TRACE_CONTEXT_SIZE, TraceContext
from .header import (
    DEFAULT_HOP_LIMIT,
    HEADER_SIZE,
    INS_VERSION,
    Binding,
    Delivery,
    Header,
    HeaderError,
    patch_for_next_hop,
)


@dataclass
class InsMessage:
    """One INS data message.

    ``source`` identifies the sender intentionally (it is how replies
    come back, e.g. Camera transmitters invert source and destination);
    ``destination`` is the intentional name being resolved. ``data`` is
    opaque application payload.
    """

    destination: NameSpecifier
    source: NameSpecifier = field(default_factory=NameSpecifier)
    data: bytes = b""
    binding: Binding = Binding.LATE
    delivery: Delivery = Delivery.ANYCAST
    hop_limit: int = DEFAULT_HOP_LIMIT
    cache_lifetime: int = 0
    #: Caching extension (Section 3.2): True marks a request willing to
    #: be answered from an INR packet cache; ``cache_lifetime`` > 0
    #: marks a response whose data INRs may store.
    accept_cached: bool = False
    #: Tracing extension (PROTOCOL.md §9): the causal context this
    #: message carries across hops. ``None`` keeps the wire layout
    #: byte-identical to the untraced format.
    trace: Optional[TraceContext] = None
    #: Set by :meth:`decode`, and only on a *canonical* frame — one
    #: that is byte for byte what :meth:`encode` of this message
    #: returns: the buffer it was decoded from, which
    #: :meth:`forwarded_frame` copies and patches instead of
    #: re-serializing. It describes the message as decoded; whoever
    #: changes a field afterwards sends it with :meth:`encode`.
    _frame: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to the Figure 10 packet layout.

        Single-buffer: the exact packet size is known up front, so the
        header is packed in place and the name/data sections are slice-
        assigned into one ``bytearray`` — no intermediate concatenations.
        """
        source_bytes = self.source.to_wire().encode("utf-8")
        destination_bytes = self.destination.to_wire().encode("utf-8")
        source_offset = HEADER_SIZE + (
            TRACE_CONTEXT_SIZE if self.trace is not None else 0
        )
        destination_offset = source_offset + len(source_bytes)
        data_offset = destination_offset + len(destination_bytes)
        header = Header(
            version=INS_VERSION,
            binding=self.binding,
            delivery=self.delivery,
            source_offset=source_offset,
            destination_offset=destination_offset,
            data_offset=data_offset,
            hop_limit=self.hop_limit,
            cache_lifetime=self.cache_lifetime,
            accept_cached=self.accept_cached,
            trace=self.trace,
        )
        out = bytearray(data_offset + len(self.data))
        header.pack_into(out, 0)
        out[source_offset:destination_offset] = source_bytes
        out[destination_offset:data_offset] = destination_bytes
        out[data_offset:] = self.data
        return bytes(out)

    @classmethod
    def decode(
        cls, packet, name_of: Optional[Callable[[str], NameSpecifier]] = None
    ) -> "InsMessage":
        """Parse a packet produced by :meth:`encode`.

        Accepts any bytes-like buffer; the name-specifier sections are
        UTF-8-decoded straight out of a ``memoryview``, so no sliced
        ``bytes`` copies are made before parsing.

        ``name_of`` turns the text of a name section into its
        name-specifier; it defaults to :meth:`NameSpecifier.parse`. A
        forwarding agent passes a function that recognises texts it has
        already parsed, and may return the same object for the same
        text every time (a parsed name is sealed).
        """
        header = Header.unpack(packet)
        view = memoryview(packet)
        source_text = str(
            view[header.source_offset:header.destination_offset], "utf-8"
        )
        destination_text = str(
            view[header.destination_offset:header.data_offset], "utf-8"
        )
        if name_of is None:
            # Looked up per call, not bound as the default: the class
            # attribute is what an instrumented run replaces.
            name_of = NameSpecifier.parse
        destination = name_of(destination_text)
        if destination.is_empty:
            # Judged on the parsed name, not the text: a section of
            # whitespace alone also parses to the empty name, which
            # matches every record of the vspace.
            raise HeaderError("packet has an empty destination name-specifier")
        source = name_of(source_text)
        message = cls(
            destination=destination,
            source=source,
            data=bytes(view[header.data_offset:]),
            binding=header.binding,
            delivery=header.delivery,
            hop_limit=header.hop_limit,
            cache_lifetime=header.cache_lifetime,
            accept_cached=header.accept_cached,
            trace=header.trace,
        )
        if (
            packet.__class__ is bytes  # a buffer nobody can write to
            and header.reserved_clear
            and header.source_offset == header.wire_length
            and destination.cached_wire() == destination_text
            and (not source_text or source.cached_wire() == source_text)
        ):
            # Canonical: nothing between the header and the names (the
            # sections are contiguous by construction of the offsets),
            # no ignored bit set, and each section is its name's
            # compact text — a name fresh from a compact parse, or one
            # recognised by this very text, says so without a walk; a
            # spaced-out or value-less section does not.
            message._frame = packet
        return message

    def wire_size(self) -> int:
        """Size in bytes of the encoded packet (for link accounting)."""
        return (
            HEADER_SIZE
            + (TRACE_CONTEXT_SIZE if self.trace is not None else 0)
            + len(self.source.to_wire().encode("utf-8"))
            + len(self.destination.to_wire().encode("utf-8"))
            + len(self.data)
        )

    # ------------------------------------------------------------------
    # Forwarding helpers
    # ------------------------------------------------------------------
    def hop_decremented(self) -> "InsMessage":
        """A copy with the hop limit reduced by one (overlay forwarding).

        Raises ValueError at zero: the caller must drop the message
        instead of forwarding it.
        """
        if self.hop_limit <= 0:
            raise ValueError("hop limit exhausted")
        # Spelled out rather than dataclasses.replace(): this runs once
        # per overlay hop, and replace() re-derives the field list and
        # builds a kwargs dict on every call.
        return InsMessage(
            destination=self.destination,
            source=self.source,
            data=self.data,
            binding=self.binding,
            delivery=self.delivery,
            hop_limit=self.hop_limit - 1,
            cache_lifetime=self.cache_lifetime,
            accept_cached=self.accept_cached,
            trace=self.trace,
        )

    def forwarded_frame(self, trace: Optional[TraceContext] = None) -> bytes:
        """The packet this message travels its next overlay hop as: the
        hop limit one lower and, when ``trace`` is given, that context
        in place of the one it arrived with — the bytes of
        ``hop_decremented()`` with ``trace`` set, encoded.

        A message decoded from a canonical frame is forwarded by
        patching a copy of that frame; any other is re-encoded, which
        emits the canonical form, so an oddly laid-out packet is
        normalized at its first hop and patched at every later one.
        Raises ValueError at hop limit zero, like :meth:`hop_decremented`.
        """
        frame = self._frame
        if frame is None or (trace is not None and self.trace is None):
            outgoing = self.hop_decremented()
            if trace is not None:
                outgoing.trace = trace
            return outgoing.encode()
        if self.hop_limit <= 0:
            raise ValueError("hop limit exhausted")
        return patch_for_next_hop(frame, self.hop_limit - 1, trace)

    def reply_template(self) -> "InsMessage":
        """A message skeleton addressed back at this message's source.

        Source and destination are inverted, exactly how the Camera
        transmitter answers a receiver (Section 3.2).
        """
        return InsMessage(
            destination=self.source,
            source=self.destination,
            binding=self.binding,
            delivery=Delivery.ANYCAST,
            hop_limit=DEFAULT_HOP_LIMIT,
        )

    @property
    def wants_caching(self) -> bool:
        """True when INRs may cache this packet's data (Section 3.2)."""
        return self.cache_lifetime > 0
