"""Tests for the compact binary name encoding (footnote 2)."""

import pytest

from hypothesis import given, settings

from repro.naming import NameSpecifier
from repro.naming.binary import BinaryNameError, decode_name, encode_name

from ..conftest import OVAL_OFFICE_CAMERA, parse
from .test_naming_properties import name_specifiers


class TestRoundTrip:
    @pytest.mark.parametrize("wire", [
        "[a=b]",
        "[a=b[c=d]]",
        "[a=b][c=d]",
        "[service=camera[entity=transmitter][id=a]][room=510]",
        OVAL_OFFICE_CAMERA,
    ])
    def test_encode_decode_identity(self, wire):
        name = parse(wire)
        assert decode_name(encode_name(name)) == name

    def test_empty_name(self):
        name = NameSpecifier()
        assert decode_name(encode_name(name)).is_empty

    @given(name_specifiers())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, name):
        assert decode_name(encode_name(name)) == name


class TestCompactness:
    def test_repeated_tokens_interned_once(self):
        """Self-contained mode wins when tokens repeat within a name:
        each distinct token is spelled once."""
        repetitive = parse(
            "[service=camera[camera=camera[entity=camera]]]"
        )
        assert len(encode_name(repetitive)) < repetitive.wire_size()

    def test_tiny_names_may_not_shrink(self):
        # the token table header costs a few bytes; that is fine
        tiny = parse("[a=b]")
        assert len(encode_name(tiny)) < 3 * tiny.wire_size()


class TestMalformedInput:
    def test_truncated_varint(self):
        with pytest.raises(BinaryNameError):
            decode_name(b"\xff")

    def test_truncated_token_table(self):
        with pytest.raises(BinaryNameError):
            decode_name(b"\x01\x01\x10ab")

    def test_out_of_range_token_index(self):
        good = bytearray(encode_name(parse("[a=b]")))
        # patch the attribute index to something absurd
        # layout: count=2, ('a','b'), ENTER idx idx LEAVE END
        good[-4] = 0x55
        with pytest.raises(BinaryNameError):
            decode_name(bytes(good))

    def test_unbalanced_nesting(self):
        # self-contained mode, empty table, then a LEAVE with no ENTER
        with pytest.raises(BinaryNameError):
            decode_name(bytes([0x01, 0x00, 0x02, 0x00]))

    def test_unknown_mode_byte(self):
        with pytest.raises(BinaryNameError):
            decode_name(bytes([0x7F, 0x00]))

    def test_missing_terminator(self):
        encoded = encode_name(parse("[a=b]"))
        with pytest.raises(BinaryNameError):
            decode_name(encoded[:-1])

    def test_trailing_garbage(self):
        encoded = encode_name(parse("[a=b]"))
        with pytest.raises(BinaryNameError):
            decode_name(encoded + b"junk")

    @given(name_specifiers())
    @settings(max_examples=60, deadline=None)
    def test_bit_flips_never_crash_uncontrolled(self, name):
        import random

        encoded = bytearray(encode_name(name))
        rng = random.Random(len(encoded))
        position = rng.randrange(len(encoded))
        encoded[position] ^= 0xFF
        try:
            decode_name(bytes(encoded))
        except (BinaryNameError, Exception) as error:
            # controlled error types only
            from repro.naming import NamingError

            assert isinstance(error, (NamingError, ValueError))
