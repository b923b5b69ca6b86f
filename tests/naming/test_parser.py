"""Tests for the wire-format parser (Figure 3 syntax)."""

import pytest

from repro.naming import NameSpecifier, NameSyntaxError, parse_name_specifier

from ..conftest import OVAL_OFFICE_CAMERA, child, count, depth


class TestBasicParsing:
    def test_single_pair(self):
        name = parse_name_specifier("[city=washington]")
        assert name._roots[0].attribute == "city"
        assert name._roots[0].value == "washington"

    def test_nested_pairs(self):
        name = parse_name_specifier("[a=b[c=d[e=f]]]")
        assert child(name.root("a"), "c", "e").value == "f"

    def test_orthogonal_roots(self):
        name = parse_name_specifier("[a=b][c=d][e=f]")
        assert [p.attribute for p in name._roots] == ["a", "c", "e"]

    def test_orthogonal_children(self):
        name = parse_name_specifier("[service=camera[data-type=picture][resolution=640x480]]")
        camera = name.root("service")
        assert child(camera, "data-type").value == "picture"
        assert child(camera, "resolution").value == "640x480"

    def test_empty_input_is_the_empty_name(self):
        name = parse_name_specifier("")
        assert name.is_empty

    def test_whitespace_only_is_empty(self):
        assert parse_name_specifier("  \n\t ").is_empty


class TestWhitespaceTolerance:
    """Arbitrary whitespace is permitted anywhere except inside tokens."""

    def test_spaces_around_equals(self):
        name = parse_name_specifier("[ city = washington ]")
        assert name.root("city").value == "washington"

    def test_newlines_and_tabs(self):
        name = parse_name_specifier("[a\n=\tb\n[c =d]\n]")
        assert child(name.root("a"), "c").value == "d"

    def test_papers_figure_3_example(self):
        name = parse_name_specifier(OVAL_OFFICE_CAMERA)
        assert count(name) == 9
        assert depth(name) == 4
        west_wing = child(name.root("city"), "building", "wing")
        assert west_wing.value == "west"
        assert child(west_wing, "room").value == "oval-office"
        assert name.root("accessibility").value == "public"


class TestWildcardsAndOmission:
    def test_wildcard_value(self):
        name = parse_name_specifier("[room=*]")
        assert name.root("room").value == "*"

    def test_attribute_only_group_becomes_wildcard(self):
        # Floorplan sends [service=locator[entity=server]][location]
        name = parse_name_specifier("[service=locator[entity=server]][location]")
        assert name.root("location").value == "*"

    def test_range_operator_values_parse_as_plain_tokens(self):
        name = parse_name_specifier("[room=<20]")
        assert name.root("room").value == "<20"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "wire",
        [
            "[a=b]",
            "[a=b[c=d]]",
            "[a=b][c=d]",
            "[service=camera[entity=transmitter][id=a]][room=510]",
            "[x=*]",
        ],
    )
    def test_parse_serialize_identity(self, wire):
        assert NameSpecifier.parse(wire).to_wire() == wire

    def test_figure_3_round_trips_through_compact_form(self):
        once = NameSpecifier.parse(OVAL_OFFICE_CAMERA)
        again = NameSpecifier.parse(once.to_wire())
        assert once == again

    def test_pretty_form_reparses_identically(self):
        name = NameSpecifier.parse(OVAL_OFFICE_CAMERA)
        assert NameSpecifier.parse(name.to_wire(pretty=True)) == name


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "[",
            "[a",
            "[a=",
            "[a=b",
            "[a=b]]",
            "a=b]",
            "[=b]",
            "[a=b] trailing",
            "[a==b]",
            "[[a=b]]",
            "[a=b[]]",
        ],
    )
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(NameSyntaxError):
            parse_name_specifier(bad)

    def test_error_carries_position(self):
        try:
            parse_name_specifier("[a=b] junk")
        except NameSyntaxError as error:
            assert error.position > 0
        else:
            pytest.fail("expected NameSyntaxError")

    def test_duplicate_sibling_attribute_rejected(self):
        from repro.naming import DuplicateAttributeError

        with pytest.raises(DuplicateAttributeError):
            parse_name_specifier("[a=b][a=c]")


class TestDepthBound:
    """Adversarially deep names must be rejected, not crash the
    recursive parser (a resolver feeds wire input straight in)."""

    def test_maximum_depth_accepted(self):
        from repro.naming import MAX_NAME_DEPTH

        deep = "[a=b" * MAX_NAME_DEPTH + "]" * MAX_NAME_DEPTH
        name = parse_name_specifier(deep)
        assert depth(name) == MAX_NAME_DEPTH

    def test_beyond_maximum_depth_rejected(self):
        from repro.naming import MAX_NAME_DEPTH

        over = MAX_NAME_DEPTH + 1
        deep = "[a=b" * over + "]" * over
        with pytest.raises(NameSyntaxError, match="deeper"):
            parse_name_specifier(deep)

    def test_ridiculous_depth_rejected_quickly(self):
        bomb = "[a=b" * 100_000 + "]" * 100_000
        with pytest.raises(NameSyntaxError):
            parse_name_specifier(bomb)

    def test_deep_packet_cannot_crash_a_resolver(self):
        """End to end: the depth bomb arrives as a data packet and is
        dropped as malformed, with the resolver still serving."""
        from repro.experiments import InsDomain
        from repro.message import HEADER_SIZE, InsMessage
        from repro.naming import NameSpecifier
        from repro.resolver import DataPacket
        from repro.resolver.ports import INR_PORT

        domain = InsDomain(seed=888)
        inr = domain.add_inr(address="inr-a")
        domain.add_service("[service=ok[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        # Forge a packet whose destination name is a nesting bomb.
        bomb_text = "[a=b" * 5000 + "]" * 5000
        template = InsMessage(destination=NameSpecifier.parse("[a=b]"))
        raw = bytearray(template.encode())
        forged = raw[:HEADER_SIZE] + bomb_text.encode()
        # patch the header offsets: src empty, dst = bomb, no data
        import struct

        struct.pack_into("!III", forged, 4, HEADER_SIZE, HEADER_SIZE,
                         HEADER_SIZE + len(bomb_text))
        dropped_before = inr.stats.packets_dropped
        domain.network.send(client.address, "inr-a", INR_PORT,
                            DataPacket(raw=bytes(forged)), len(forged))
        domain.run(1.0)
        assert inr.stats.packets_dropped == dropped_before + 1
        reply = client.resolve_early(parse_name_specifier("[service=ok]"))
        domain.run(1.0)
        assert len(reply.value) == 1
