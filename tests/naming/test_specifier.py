"""Tests for NameSpecifier construction, inspection and vspaces."""

import pytest

from repro.naming import (
    DEFAULT_VSPACE,
    AVPair,
    DuplicateAttributeError,
    NameSpecifier,
    WildcardValueError,
)

from ..conftest import child, count, depth


class TestConstruction:
    def test_add_builds_roots_in_order(self):
        name = NameSpecifier()
        name.add_pair(AVPair("a", "1"))
        name.add_pair(AVPair("b", "2"))
        assert [p.attribute for p in name._roots] == ["a", "b"]

    def test_duplicate_top_level_attribute_rejected(self):
        name = NameSpecifier()
        name.add_pair(AVPair("a", "1"))
        with pytest.raises(DuplicateAttributeError):
            name.add_pair(AVPair("a", "2"))

    def test_from_dict_flat(self):
        name = NameSpecifier.from_dict({"room": "510", "floor": "5"})
        assert name.root("room").value == "510"
        assert name.root("floor").value == "5"

    def test_from_dict_nested(self):
        name = NameSpecifier.from_dict(
            {"service": ("camera", {"entity": "transmitter", "id": "a"}), "room": "510"}
        )
        assert name.to_wire() == "[service=camera[entity=transmitter][id=a]][room=510]"

    def test_from_dict_deeply_nested(self):
        name = NameSpecifier.from_dict(
            {"city": ("washington", {"building": ("whitehouse", {"wing": "west"})})}
        )
        assert child(name.root("city"), "building", "wing").value == "west"


class TestInspection:
    def test_count_and_depth_empty(self):
        empty = NameSpecifier()
        assert count(empty) == 0
        assert depth(empty) == 0
        assert empty.is_empty

    def test_walk_covers_all_pairs(self):
        name = NameSpecifier.parse("[a=1[b=2]][c=3]")
        assert {(p.attribute, p.value) for p in name.walk()} == {
            ("a", "1"),
            ("b", "2"),
            ("c", "3"),
        }

    def test_wire_size_is_utf8_bytes(self):
        name = NameSpecifier.parse("[a=b]")
        assert name.wire_size() == len("[a=b]")


class TestConcreteness:
    def test_concrete_name(self):
        assert NameSpecifier.parse("[a=b[c=d]]").is_concrete()

    def test_wildcard_is_not_concrete(self):
        assert not NameSpecifier.parse("[a=*]").is_concrete()

    def test_range_is_not_concrete(self):
        assert not NameSpecifier.parse("[a=<5]").is_concrete()

    def test_nested_wildcard_detected(self):
        assert not NameSpecifier.parse("[a=b[c=*]]").is_concrete()

    def test_require_concrete_raises_with_attribute_in_message(self):
        with pytest.raises(WildcardValueError, match="room"):
            NameSpecifier.parse("[a=b][room=*]").require_concrete()

    def test_require_concrete_returns_self(self):
        name = NameSpecifier.parse("[a=b]")
        assert name.require_concrete() is name

    def test_the_first_offending_pair_is_reported_as_before(self):
        name = NameSpecifier.parse("[a=*][b=c[d=<5]][e=*]")
        for _ in range(2):  # never cached: walked, and worded, the same
            with pytest.raises(WildcardValueError) as raised:
                name.require_concrete()
            assert str(raised.value) == (
                "advertisement value '*' for attribute 'e' is not a concrete literal"
            )


class TestVspaces:
    def test_default_when_undeclared(self):
        assert NameSpecifier.parse("[a=b]").vspaces() == (DEFAULT_VSPACE,)

    def test_single_declared_vspace(self):
        name = NameSpecifier.parse("[service=camera][vspace=camera-ne43]")
        assert name.vspaces() == ("camera-ne43",)

    def test_multiple_vspaces_via_children(self):
        name = NameSpecifier.parse("[vspace=camera-ne43[extra=building-ne43]]")
        assert set(name.vspaces()) == {"camera-ne43", "building-ne43"}

    def test_empty_name_is_default_vspace(self):
        assert NameSpecifier().vspaces() == (DEFAULT_VSPACE,)


class TestEqualityAndCopy:
    def test_equality_ignores_root_order(self):
        a = NameSpecifier.parse("[a=1][b=2]")
        b = NameSpecifier.parse("[b=2][a=1]")
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_is_structural(self):
        assert NameSpecifier.parse("[a=1[b=2]]") != NameSpecifier.parse("[a=1]")

    def test_copy_is_independent(self):
        original = NameSpecifier.parse("[a=1[b=2]]")
        duplicate = original.copy()
        duplicate.root("a").add_child(AVPair("c", "3"))
        assert duplicate != original
        assert original == NameSpecifier.parse("[a=1[b=2]]")
        assert original.copy() == original

    def test_str_and_repr(self):
        name = NameSpecifier.parse("[a=b]")
        assert str(name) == "[a=b]"
        assert "[a=b]" in repr(name)


class TestWireCache:
    """wire_size() keeps the compact wire text and its byte length; it
    keys the name first, so they stay true (test_sealed_names.py)."""

    DEEP = "[a=1[b=2[c=3[d=4]]]][e=5]"

    def test_wire_size_is_computed_once_while_unmodified(self, monkeypatch):
        name = NameSpecifier.parse(self.DEEP)
        assert name.wire_size() == len(self.DEEP)
        calls = []
        real = NameSpecifier.to_wire
        monkeypatch.setattr(
            NameSpecifier, "to_wire",
            lambda self, pretty=False: calls.append(1) or real(self, pretty),
        )
        assert name.wire_size() == len(self.DEEP)
        assert calls == []

    def test_to_wire_serves_the_cached_text_but_not_the_pretty_form(self):
        name = NameSpecifier.parse(self.DEEP)
        name.wire_size()
        assert name.to_wire() is name.to_wire()
        assert name.to_wire() == self.DEEP
        assert name.to_wire(pretty=True) == "[a = 1 [b = 2 [c = 3 [d = 4]]]] [e = 5]"

    def test_non_ascii_names_are_sized_in_bytes(self):
        name = NameSpecifier.parse("[café=zürich]")
        assert name.wire_size() == len("[café=zürich]".encode("utf-8"))
        assert name.wire_size() > len(name.to_wire())

    def test_copy_starts_with_its_own_cache(self):
        name = NameSpecifier.parse(self.DEEP)
        name.wire_size()
        twin = name.copy()
        twin.add_pair(AVPair("z", "9"))
        assert name.wire_size() == len(self.DEEP)
        assert twin.wire_size() == len(self.DEEP) + len("[z=9]")

    # -- what the parser leaves behind (it keys and sizes as it reads) --
    def test_a_parsed_name_is_already_keyed_with_the_key_a_walk_would_build(self):
        name = NameSpecifier.parse(" [b=2[y=1][x=2]] [a=1] ")
        assert name._key_cache is not None
        assert all(pair._key_cache is not None for pair in name.walk())
        assert name._key_cache == name.copy().canonical_key()
        assert name.canonical_key() is name._key_cache

    def test_compact_input_is_already_sized_and_served_as_is(self):
        name = NameSpecifier.parse(self.DEEP)
        assert name.cached_wire() is self.DEEP
        assert name._wire_cache == (self.DEEP, len(self.DEEP))
        assert name.to_wire() is self.DEEP

    @pytest.mark.parametrize(
        "text", ["[a=1] [e=5]", " [a=1]", "[a=1]\n", "[a = 1]", "[a]", "[a=1[b]]"]
    )
    def test_non_compact_input_seeds_no_wire_text(self, text):
        name = NameSpecifier.parse(text)
        assert name._key_cache is not None
        assert name._wire_cache is None
        assert name.to_wire() != text
        assert NameSpecifier.parse(name.to_wire()).to_wire() == name.to_wire()

    def test_non_ascii_compact_input_is_sized_in_bytes_by_the_parser(self):
        text = "[café=zürich]"
        name = NameSpecifier.parse(text)
        assert name._wire_cache[1] == len(text.encode("utf-8")) > len(text)
