"""Fuzz-style regression tests for the binary wire codec.

The contract under test: ``decode_name`` raises ``BinaryNameError`` (a
``WireFormatError``, a ``NamingError``) for *every* undecodable buffer —
truncations, mutations, bad indexes, bad UTF-8, unbalanced nesting,
trailing bytes — and never leaks a raw ``IndexError``,
``UnicodeDecodeError`` or similar. Before the zero-copy rewrite,
truncated varints escaped as ``IndexError`` and trailing garbage after
a nested name's terminator could be silently accepted; these tests pin
the fixed behavior.
"""

import random

import pytest

from hypothesis import given, settings

from repro.naming import NamingError, WireFormatError
from repro.naming.binary import BinaryNameError, decode_name, encode_name

from ..conftest import OVAL_OFFICE_CAMERA, parse
from .test_naming_properties import name_specifiers

_MODE_SELF = 0x01
_MODE_REGISTRY = 0x02


def _frame(wire: str) -> bytes:
    return encode_name(parse(wire))


class TestErrorTaxonomy:
    def test_binary_error_is_wire_format_error(self):
        assert issubclass(BinaryNameError, WireFormatError)
        assert issubclass(WireFormatError, NamingError)

    def test_wire_format_error_exported_from_package(self):
        import repro.naming as naming

        assert naming.WireFormatError is WireFormatError


class TestTruncation:
    """Every strict prefix of a valid frame is cleanly rejected."""

    @pytest.mark.parametrize("wire", ["[a=b]", "[a=b[c=d][e=f]]", OVAL_OFFICE_CAMERA])
    def test_every_prefix_raises_binary_error(self, wire):
        frame = _frame(wire)
        for cut in range(len(frame)):
            with pytest.raises(BinaryNameError):
                decode_name(frame[:cut])

    def test_empty_buffer(self):
        with pytest.raises(BinaryNameError):
            decode_name(b"")


class TestMalformedFrames:
    def test_trailing_bytes_after_terminator(self):
        frame = _frame("[a=b]")
        with pytest.raises(BinaryNameError, match="trailing"):
            decode_name(frame + b"\x00")
        with pytest.raises(BinaryNameError):
            decode_name(frame + frame)

    def test_unknown_mode_byte(self):
        with pytest.raises(BinaryNameError, match="mode"):
            decode_name(bytes([0x7F, 0x00]))

    def test_unknown_opcode(self):
        # Valid empty token table, then an opcode outside {0,1,2}.
        with pytest.raises(BinaryNameError, match="opcode"):
            decode_name(bytes([_MODE_SELF, 0x00, 0x09]))

    def test_runaway_varint(self):
        # Six continuation bytes exceed the 35-bit shift guard.
        runaway = bytes([_MODE_SELF]) + b"\xff\xff\xff\xff\xff\xff\x01"
        with pytest.raises(BinaryNameError, match="varint"):
            decode_name(runaway)

    def test_token_table_count_beyond_message(self):
        # Claims 200 tokens in a 3-byte remainder.
        with pytest.raises(BinaryNameError, match="table"):
            decode_name(bytes([_MODE_SELF, 200, 0x01, 0x61, 0x00]))

    def test_token_index_out_of_range(self):
        # One token ("a"), then ENTER referencing token 7.
        frame = bytes([_MODE_SELF, 1, 1, 0x61, 0x01, 0x00, 0x07, 0x02, 0x00])
        with pytest.raises(BinaryNameError, match="out of range"):
            decode_name(frame)

    def test_registry_frame_without_registry(self):
        # Footnote 2's shared-registry mode is not built: its mode byte
        # is refused like any other unknown one.
        frame = bytes([_MODE_REGISTRY, 0x01, 0x00, 0x01, 0x02, 0x00])
        with pytest.raises(BinaryNameError, match="unknown encoding mode"):
            decode_name(frame)

    def test_bad_utf8_token_bytes(self):
        # One token of length 2 holding an invalid UTF-8 sequence.
        frame = bytes([_MODE_SELF, 1, 2, 0xC3, 0x28, 0x00])
        with pytest.raises(BinaryNameError, match="token bytes"):
            decode_name(frame)

    def test_reserved_characters_in_token(self):
        # Tokens "a" and "x=y": the value smuggles a reserved character,
        # so the frame encodes an illegal name.
        bad = b"x=y"
        frame = (
            bytes([_MODE_SELF, 2, 1, 0x61, len(bad)])
            + bad
            + bytes([0x01, 0x00, 0x01, 0x02, 0x00])
        )
        with pytest.raises(BinaryNameError, match="illegal name"):
            decode_name(frame)

    def test_duplicate_sibling_attribute(self):
        # ENTER a=b, LEAVE, ENTER a=b again at the same level.
        frame = bytes(
            [_MODE_SELF, 2, 1, 0x61, 1, 0x62,
             0x01, 0x00, 0x01, 0x02,
             0x01, 0x00, 0x01, 0x02,
             0x00]
        )
        with pytest.raises(BinaryNameError, match="illegal name"):
            decode_name(frame)

    def test_leave_without_enter(self):
        frame = bytes([_MODE_SELF, 0, 0x02, 0x00])
        with pytest.raises(BinaryNameError, match="nesting"):
            decode_name(frame)

    def test_enter_without_leave_at_end(self):
        frame = bytes([_MODE_SELF, 1, 1, 0x61, 0x01, 0x00, 0x00, 0x00])
        with pytest.raises(BinaryNameError, match="nesting"):
            decode_name(frame)


class TestMutationFuzz:
    """Seeded byte-flip fuzz: decode either succeeds or raises
    BinaryNameError — no other exception type ever escapes."""

    @pytest.mark.parametrize("wire", ["[a=b[c=d][e=f]][g=h]", OVAL_OFFICE_CAMERA])
    def test_single_byte_mutations(self, wire):
        frame = bytearray(_frame(wire))
        rng = random.Random(1234)
        for _ in range(400):
            index = rng.randrange(len(frame))
            original = frame[index]
            frame[index] = rng.randrange(256)
            try:
                decode_name(bytes(frame))
            except BinaryNameError:  # lint: disable=no-silent-except -- the fuzz contract under test: this is the only permitted escape
                pass
            finally:
                frame[index] = original

    def test_random_garbage(self):
        rng = random.Random(99)
        for _ in range(400):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
            try:
                decode_name(blob)
            except BinaryNameError:  # lint: disable=no-silent-except -- the fuzz contract under test: this is the only permitted escape
                pass


class TestRoundTripProperties:
    @given(name_specifiers())
    @settings(max_examples=150, deadline=None)
    def test_self_contained_round_trip(self, name):
        frame = encode_name(name)
        assert decode_name(frame) == name
        # Re-encoding the decoded name is byte-identical: the token
        # table order is the deterministic first-seen walk order.
        assert encode_name(decode_name(frame)) == frame

    def test_memoryview_input(self):
        frame = _frame(OVAL_OFFICE_CAMERA)
        padded = b"\xaa" + frame + b"\xbb"
        assert decode_name(memoryview(padded)[1:-1]) == parse(OVAL_OFFICE_CAMERA)
