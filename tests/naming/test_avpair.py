"""Unit tests for attribute-value pairs."""

import pytest

from repro.naming import (
    AVPair,
    DuplicateAttributeError,
    InvalidTokenError,
    NameSpecifier,
    validate_token,
)

from ..conftest import child


def pair_of(attribute: str, value: str, *children: AVPair) -> AVPair:
    """An av-pair with the given children."""
    pair = AVPair(attribute, value)
    for kid in children:
        pair.add_child(kid)
    return pair


class TestTokenValidation:
    def test_accepts_plain_tokens(self):
        assert validate_token("camera", "attribute") == "camera"

    def test_accepts_punctuation(self):
        assert validate_token("640x480", "value") == "640x480"
        assert validate_token("oval-office", "value") == "oval-office"
        assert validate_token("a_b.c:d", "value") == "a_b.c:d"

    @pytest.mark.parametrize("bad", ["", "a b", "a[b", "a]b", "a=b", "\t", "a\nb"])
    def test_rejects_reserved_and_whitespace(self, bad):
        with pytest.raises(InvalidTokenError):
            validate_token(bad, "attribute")

    def test_error_names_the_kind(self):
        with pytest.raises(InvalidTokenError, match="value"):
            validate_token("x=y", "value")


class TestConstruction:
    def test_basic_pair(self):
        pair = AVPair("city", "washington")
        assert pair.attribute == "city"
        assert pair.value == "washington"
        assert pair.is_leaf
        assert pair.children == ()

    def test_rejects_bad_attribute(self):
        with pytest.raises(InvalidTokenError):
            AVPair("ci ty", "washington")

    def test_rejects_bad_value(self):
        with pytest.raises(InvalidTokenError):
            AVPair("city", "wash[ington")

    def test_add_child_returns_child(self):
        parent = AVPair("service", "camera")
        kid = AVPair("entity", "transmitter")
        assert parent.add_child(kid) is kid
        assert parent.children == (kid,)
        assert not parent.is_leaf

    def test_sibling_attributes_must_be_orthogonal(self):
        parent = AVPair("service", "camera")
        parent.add_child(AVPair("entity", "transmitter"))
        with pytest.raises(DuplicateAttributeError):
            parent.add_child(AVPair("entity", "receiver"))

    def test_same_attribute_allowed_at_different_levels(self):
        # country=us -> state=virginia vs country=canada -> province=...
        # but also room can nest under room-like chains.
        parent = AVPair("area", "north")
        parent.add_child(AVPair("area2", "x")).add_child(AVPair("area", "south"))
        assert child(parent, "area2", "area").value == "south"  # no clash


class TestInspection:
    def test_child_lookup(self):
        pair = pair_of("a", "b", AVPair("c", "d"))
        assert child(pair, "c").value == "d"
        assert child(pair, "missing") is None

    def test_walk_is_preorder(self):
        root = pair_of("a", "1", pair_of("b", "2", AVPair("c", "3")), AVPair("d", "4"))
        walked = [(p.attribute, p.value) for p in root.walk()]
        assert walked == [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")]

class TestEquality:
    def test_structural_equality(self):
        a = pair_of("x", "1", AVPair("y", "2"))
        b = pair_of("x", "1", AVPair("y", "2"))
        assert a == b
        assert hash(a) == hash(b)

    def test_sibling_order_is_irrelevant(self):
        a = pair_of("x", "1", AVPair("y", "2"), AVPair("z", "3"))
        b = pair_of("x", "1", AVPair("z", "3"), AVPair("y", "2"))
        assert a == b

    def test_value_difference_breaks_equality(self):
        assert AVPair("x", "1") != AVPair("x", "2")

    def test_structure_difference_breaks_equality(self):
        assert pair_of("x", "1", AVPair("y", "2")) != AVPair("x", "1")

    def test_not_equal_to_other_types(self):
        assert AVPair("x", "1") != "x=1"

    def test_copy_is_deep_and_equal(self):
        original = pair_of("x", "1", pair_of("y", "2", AVPair("z", "3")))
        duplicate = original.copy()
        child(duplicate, "y").add_child(AVPair("w", "4"))
        assert duplicate != original
        assert original.copy() == original


class TestLeavesShareNoState:
    """Childless av-pairs share one empty children mapping; a pair gets
    a dict of its own the moment it gets a child."""

    def test_a_child_added_to_one_leaf_shows_under_no_other(self):
        first = NameSpecifier.parse("[a=1[b=2][c=3]][d=4]").copy()
        second = NameSpecifier.parse("[a=1[b=2][c=3]][d=4]")
        built = AVPair("e", "5")
        child(first.root("a"), "b").add_child(AVPair("x", "9"))
        for pair in list(second.walk()) + [built]:
            if pair.attribute in ("b", "c", "d", "e"):
                assert pair.is_leaf and pair.children == ()
        assert child(first.root("a"), "c").is_leaf and first.root("d").is_leaf
        assert [p.attribute for p in child(first.root("a"), "b").children] == ["x"]

    def test_the_copy_of_a_leaf_is_independent(self):
        leaf = AVPair("a", "1")
        duplicate = leaf.copy()
        duplicate.add_child(AVPair("b", "2"))
        leaf.add_child(AVPair("c", "3"))
        assert [p.attribute for p in duplicate.children] == ["b"]
        assert [p.attribute for p in leaf.children] == ["c"]
        assert leaf != duplicate

    def test_a_duplicate_sibling_is_still_refused_on_the_first_child(self):
        pair = AVPair("a", "1")
        pair.add_child(AVPair("b", "2"))
        with pytest.raises(DuplicateAttributeError):
            pair.add_child(AVPair("b", "3"))
