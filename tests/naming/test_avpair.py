"""Unit tests for attribute-value pairs."""

import pytest

from repro.naming import (
    AVPair,
    DuplicateAttributeError,
    InvalidTokenError,
    NameSpecifier,
    make_pair,
    validate_token,
)


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
        child = parent.add("entity", "transmitter")
        assert child.attribute == "entity"
        assert parent.children == (child,)
        assert not parent.is_leaf

    def test_sibling_attributes_must_be_orthogonal(self):
        parent = AVPair("service", "camera")
        parent.add("entity", "transmitter")
        with pytest.raises(DuplicateAttributeError):
            parent.add("entity", "receiver")

    def test_same_attribute_allowed_at_different_levels(self):
        # country=us -> state=virginia vs country=canada -> province=...
        # but also room can nest under room-like chains.
        parent = AVPair("area", "north")
        child = parent.add("area2", "x")
        child.add("area", "south")  # no clash across levels
        assert parent.child("area2").child("area").value == "south"

    def test_make_pair_with_children(self):
        pair = make_pair(
            "service", "camera", AVPair("entity", "transmitter"), AVPair("id", "a")
        )
        assert {c.attribute for c in pair.children} == {"entity", "id"}


class TestInspection:
    def test_child_lookup(self):
        pair = make_pair("a", "b", AVPair("c", "d"))
        assert pair.child("c").value == "d"
        assert pair.child("missing") is None

    def test_walk_is_preorder(self):
        root = AVPair("a", "1")
        child = root.add("b", "2")
        child.add("c", "3")
        root.add("d", "4")
        walked = [(p.attribute, p.value) for p in root.walk()]
        assert walked == [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")]

    def test_depth_counts_av_pair_levels(self):
        root = AVPair("a", "1")
        assert root.depth() == 1
        child = root.add("b", "2")
        assert root.depth() == 2
        child.add("c", "3")
        assert root.depth() == 3

    def test_count(self):
        root = AVPair("a", "1")
        root.add("b", "2").add("c", "3")
        root.add("d", "4")
        assert root.count() == 4


class TestEquality:
    def test_structural_equality(self):
        a = make_pair("x", "1", AVPair("y", "2"))
        b = make_pair("x", "1", AVPair("y", "2"))
        assert a == b
        assert hash(a) == hash(b)

    def test_sibling_order_is_irrelevant(self):
        a = make_pair("x", "1", AVPair("y", "2"), AVPair("z", "3"))
        b = make_pair("x", "1", AVPair("z", "3"), AVPair("y", "2"))
        assert a == b

    def test_value_difference_breaks_equality(self):
        assert AVPair("x", "1") != AVPair("x", "2")

    def test_structure_difference_breaks_equality(self):
        assert make_pair("x", "1", AVPair("y", "2")) != AVPair("x", "1")

    def test_not_equal_to_other_types(self):
        assert AVPair("x", "1") != "x=1"

    def test_copy_is_deep_and_equal(self):
        original = make_pair("x", "1", make_pair("y", "2", AVPair("z", "3")))
        duplicate = original.copy()
        duplicate.child("y").add("w", "4")
        assert duplicate != original
        assert original.copy() == original


class TestLeavesShareNoState:
    """Childless av-pairs share one empty children mapping; a pair gets
    a dict of its own the moment it gets a child."""

    def test_a_child_added_to_one_leaf_shows_under_no_other(self):
        first = NameSpecifier.parse("[a=1[b=2][c=3]][d=4]").copy()
        second = NameSpecifier.parse("[a=1[b=2][c=3]][d=4]")
        built = AVPair("e", "5")
        first.root("a").child("b").add("x", "9")
        for pair in list(second.walk()) + [built]:
            if pair.attribute in ("b", "c", "d", "e"):
                assert pair.is_leaf and pair.children == ()
                assert pair.child("x") is None
        assert first.root("a").child("c").is_leaf and first.root("d").is_leaf
        assert [p.attribute for p in first.root("a").child("b").children] == ["x"]

    def test_the_copy_of_a_leaf_is_independent(self):
        leaf = AVPair("a", "1")
        duplicate = leaf.copy()
        duplicate.add("b", "2")
        leaf.add("c", "3")
        assert [p.attribute for p in duplicate.children] == ["b"]
        assert [p.attribute for p in leaf.children] == ["c"]
        assert leaf != duplicate

    def test_a_duplicate_sibling_is_still_refused_on_the_first_child(self):
        pair = AVPair("a", "1")
        pair.add("b", "2")
        with pytest.raises(DuplicateAttributeError):
            pair.add("b", "3")
