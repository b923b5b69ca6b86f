"""Property-based tests for the packet format."""

from hypothesis import given, settings, strategies as st

from repro.message import Binding, Delivery, InsMessage
from repro.obs import TraceContext

from ..conftest import forge_packet
from ..naming import fig3_oracle
from ..naming.test_naming_properties import name_specifiers
from ..naming.test_parser_differential import spaced_queries


@given(
    destination=name_specifiers(),
    source=name_specifiers(),
    data=st.binary(max_size=300),
    binding=st.sampled_from(list(Binding)),
    delivery=st.sampled_from(list(Delivery)),
    hop_limit=st.integers(min_value=0, max_value=65535),
    cache_lifetime=st.integers(min_value=0, max_value=65535),
    accept_cached=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_encode_decode_is_identity(
    destination, source, data, binding, delivery, hop_limit, cache_lifetime,
    accept_cached,
):
    message = InsMessage(
        destination=destination,
        source=source,
        data=data,
        binding=binding,
        delivery=delivery,
        hop_limit=hop_limit,
        cache_lifetime=cache_lifetime,
        accept_cached=accept_cached,
    )
    decoded = InsMessage.decode(message.encode())
    assert decoded.destination == destination
    assert decoded.source == source
    assert decoded.data == data
    assert decoded.binding is binding
    assert decoded.delivery is delivery
    assert decoded.hop_limit == hop_limit
    assert decoded.cache_lifetime == cache_lifetime
    assert decoded.accept_cached == accept_cached
    assert message.wire_size() == len(message.encode())


@given(
    destination=spaced_queries(),
    source=spaced_queries(),
    data=st.binary(max_size=40),
    trace=st.one_of(
        st.none(),
        st.builds(
            TraceContext,
            trace_id=st.integers(1, 2**64 - 1),
            span_id=st.integers(1, 2**64 - 1),
            parent_span_id=st.integers(0, 2**64 - 1),
        ),
    ),
)
@settings(max_examples=150, deadline=None)
def test_reencoding_a_decoded_packet_gives_the_bytes_the_token_walk_gave(
    destination, source, data, trace
):
    """A forward re-encodes what it decoded. Parsed names now carry their
    wire text when the section was compact; the bytes must be what the
    Figure 3 oracle's uncached names serialise to, however the incoming
    sections were spaced."""
    (destination_name, destination_spaced) = destination
    (source_name, source_spaced) = source
    compact = forge_packet(
        source_name.to_wire(), destination_name.to_wire(), data, trace
    )
    spaced = forge_packet(source_spaced, destination_spaced, data, trace)
    reference = InsMessage(
        destination=fig3_oracle.parse_name_specifier(destination_spaced),
        source=fig3_oracle.parse_name_specifier(source_spaced),
        data=data,
        hop_limit=7,
        cache_lifetime=3,
        trace=trace,
    ).encode()
    assert reference == compact
    for raw in (compact, spaced):
        decoded = InsMessage.decode(raw)
        assert decoded.encode() == compact
        assert decoded.hop_decremented().encode() == compact[:16] + b"\x00\x06" + compact[18:]
