"""Fuzz tests: arbitrary bytes must never crash the packet decoder with
anything other than a controlled error type."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.message import HEADER_SIZE, HeaderError, InsMessage
from repro.naming import NameSpecifier, NamingError

from ..conftest import forge_packet


@given(data=st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decode_raises_only_controlled_errors(data):
    """A resolver feeds received datagrams straight into decode; a
    malformed packet must surface as ValueError-family, never as an
    IndexError/KeyError/UnicodeDecodeError escaping to the event loop."""
    try:
        InsMessage.decode(data)
    # lint: disable=no-silent-except -- fuzz oracle: these error families ARE the pass condition
    except (HeaderError, NamingError, ValueError):
        pass  # includes UnicodeDecodeError (a ValueError subclass)


@given(data=st.binary(min_size=1, max_size=100))
@settings(max_examples=200, deadline=None)
def test_valid_prefix_with_garbage_data_section_decodes(data):
    """The data section is opaque: any bytes there must decode fine."""
    message = InsMessage(destination=NameSpecifier.parse("[a=b]"), data=data)
    decoded = InsMessage.decode(message.encode())
    assert decoded.data == data


@given(flip_position=st.integers(min_value=0, max_value=HEADER_SIZE - 1),
       flip_bits=st.integers(min_value=1, max_value=255))
@settings(max_examples=200, deadline=None)
def test_corrupted_headers_never_crash(flip_position, flip_bits):
    message = InsMessage(destination=NameSpecifier.parse("[a=b[c=d]]"),
                         data=b"payload")
    encoded = bytearray(message.encode())
    encoded[flip_position] ^= flip_bits
    try:
        InsMessage.decode(bytes(encoded))
    # lint: disable=no-silent-except -- fuzz oracle: these error families ARE the pass condition
    except (HeaderError, NamingError, ValueError):
        pass


@given(
    blank=st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u3000", max_size=12),
    source=st.sampled_from(["", "[service=sender]", "  "]),
    data=st.binary(max_size=20),
)
@settings(max_examples=150, deadline=None)
def test_blank_destination_sections_are_header_errors(blank, source, data):
    """Whatever whitespace fills it, a destination section that parses to
    the empty (match-everything) name never gets out of decode."""
    with pytest.raises(HeaderError):
        InsMessage.decode(forge_packet(source, blank, data))
