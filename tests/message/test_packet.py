"""Tests for whole INS messages (encode/decode, forwarding helpers)."""

import time
from dataclasses import fields

import pytest

from repro.message import (
    Binding,
    DEFAULT_HOP_LIMIT,
    Delivery,
    HEADER_SIZE,
    HeaderError,
    InsMessage,
)
from repro.naming import AVPair, NameSpecifier, SealedNameError

from ..conftest import forge_packet, parse


def sample_message(**overrides) -> InsMessage:
    fields = dict(
        destination=parse("[service=camera[entity=transmitter]][room=510]"),
        source=parse("[service=camera[entity=receiver][id=r]]"),
        data=b"image-bytes",
        binding=Binding.LATE,
        delivery=Delivery.ANYCAST,
    )
    fields.update(overrides)
    return InsMessage(**fields)


class TestEncodeDecode:
    def test_round_trip(self):
        message = sample_message()
        decoded = InsMessage.decode(message.encode())
        assert decoded.destination == message.destination
        assert decoded.source == message.source
        assert decoded.data == message.data
        assert decoded.binding is message.binding
        assert decoded.delivery is message.delivery

    def test_empty_source_round_trips(self):
        message = sample_message(source=NameSpecifier())
        decoded = InsMessage.decode(message.encode())
        assert decoded.source.is_empty

    def test_binary_data_survives(self):
        payload = bytes(range(256))
        decoded = InsMessage.decode(sample_message(data=payload).encode())
        assert decoded.data == payload

    def test_empty_destination_rejected_on_decode(self):
        message = sample_message(destination=parse("[a=b]"))
        encoded = bytearray(message.encode())
        # Forge destination_offset == data_offset (empty destination).
        forged = sample_message()
        forged.destination = NameSpecifier()
        with pytest.raises((HeaderError, ValueError)):
            InsMessage.decode(forged.encode())

    @pytest.mark.parametrize("blank", [" ", "   ", "\n\t ", "\u3000"])
    def test_whitespace_only_destination_rejected_on_decode(self, blank):
        """A destination section of whitespace parses to the empty name,
        which matches every record in the vspace: it is as empty as a
        zero-length section and is rejected the same way."""
        assert NameSpecifier.parse(blank).is_empty
        forged = forge_packet("[service=sender]", blank, b"payload")
        with pytest.raises(HeaderError, match="empty destination"):
            InsMessage.decode(forged)
        InsMessage.decode(forge_packet(blank, "[a=b]"))  # a blank source is legal

    def test_a_packet_padded_with_blanks_decodes_in_linear_time(self):
        """Nothing caps a name section's length, so a sender can pad one
        with 200 k blanks. Each INR must read that in milliseconds — as
        many steps as characters, not as many as pairs of them."""
        padding = " " * 200_000
        started = time.process_time()
        decoded = InsMessage.decode(
            forge_packet("[service=sender]" + padding, "[a=b]" + padding, b"x")
        )
        with pytest.raises(HeaderError, match="empty destination"):
            InsMessage.decode(forge_packet("[service=sender]", padding, b"x"))
        assert time.process_time() - started < 2.0
        assert decoded.destination == parse("[a=b]")
        assert decoded.source == parse("[service=sender]")
        # The forward re-encodes compactly: the padding dies at this hop.
        assert len(decoded.encode()) < 100

    def test_wire_size_matches_encoding(self):
        message = sample_message()
        assert message.wire_size() == len(message.encode())

    def test_layout_order(self):
        """Header, then source, then destination, then data."""
        message = sample_message()
        encoded = message.encode()
        source_wire = message.source.to_wire().encode()
        destination_wire = message.destination.to_wire().encode()
        assert encoded[HEADER_SIZE:HEADER_SIZE + len(source_wire)] == source_wire
        offset = HEADER_SIZE + len(source_wire)
        assert encoded[offset:offset + len(destination_wire)] == destination_wire
        assert encoded.endswith(message.data)

    def test_caching_fields_round_trip(self):
        message = sample_message(cache_lifetime=120, accept_cached=True)
        decoded = InsMessage.decode(message.encode())
        assert decoded.cache_lifetime == 120
        assert decoded.accept_cached
        assert decoded.wants_caching

    def test_zero_cache_lifetime_disallows_caching(self):
        assert not sample_message(cache_lifetime=0).wants_caching


class TestForwardingHelpers:
    def test_hop_decrement(self):
        message = sample_message(hop_limit=5)
        forwarded = message.hop_decremented()
        assert forwarded.hop_limit == 4
        assert message.hop_limit == 5  # original untouched

    def test_hop_decrement_copies_every_other_field(self):
        from repro.obs import TraceContext

        message = sample_message(
            hop_limit=5, cache_lifetime=9, accept_cached=True,
            delivery=Delivery.MULTICAST, binding=Binding.EARLY,
            trace=TraceContext(trace_id=1, span_id=2, parent_span_id=3),
        )
        forwarded = message.hop_decremented()
        for field in fields(InsMessage):
            if field.name != "hop_limit":
                assert getattr(forwarded, field.name) is getattr(message, field.name)

    def test_hop_exhaustion_raises(self):
        with pytest.raises(ValueError):
            sample_message(hop_limit=0).hop_decremented()

    def test_reply_template_inverts_names(self):
        message = sample_message()
        reply = message.reply_template()
        assert reply.destination == message.source
        assert reply.source == message.destination
        assert reply.delivery is Delivery.ANYCAST
        assert reply.hop_limit == DEFAULT_HOP_LIMIT
        assert reply.data == b""

    def test_reply_template_shares_the_sealed_names(self):
        message = sample_message()
        reply = message.reply_template()
        assert reply.destination is message.source
        assert reply.source is message.destination
        with pytest.raises(SealedNameError):
            reply.destination.add_pair(AVPair("extra", "1"))
