"""Tests for value matchers: exact, wild-card and range operators."""

import pytest

from repro.naming import (
    LiteralMatcher,
    RangeMatcher,
    WildcardMatcher,
    classify_value,
    is_wildcard,
    parse_number,
)


class TestClassification:
    def test_plain_value_is_literal(self):
        matcher = classify_value("washington")
        assert isinstance(matcher, LiteralMatcher)
        assert not matcher.is_multi

    def test_star_is_wildcard(self):
        matcher = classify_value("*")
        assert isinstance(matcher, WildcardMatcher)
        assert matcher.is_multi

    @pytest.mark.parametrize("value,op,bound", [
        ("<20", "<", "20"),
        (">5", ">", "5"),
        ("<=7.5", "<=", "7.5"),
        (">=-3", ">=", "-3"),
    ])
    def test_range_operators(self, value, op, bound):
        matcher = classify_value(value)
        assert isinstance(matcher, RangeMatcher)
        assert matcher.operator == op
        assert matcher.bound == bound
        assert matcher.is_multi

    def test_longest_operator_wins(self):
        assert classify_value("<=9").operator == "<="
        assert classify_value("<9").operator == "<"

    def test_is_wildcard(self):
        assert is_wildcard("*")
        assert not is_wildcard("**")


class TestLiteralMatching:
    def test_matches_exactly(self):
        assert LiteralMatcher("x").matches("x")
        assert not LiteralMatcher("x").matches("X")


class TestWildcardMatching:
    def test_matches_everything(self):
        matcher = WildcardMatcher()
        assert matcher.matches("anything")
        assert matcher.matches("")


class TestRangeMatching:
    def test_numeric_comparisons(self):
        assert RangeMatcher("<", "20").matches("12")
        assert not RangeMatcher("<", "20").matches("20")
        assert RangeMatcher("<=", "20").matches("20")
        assert RangeMatcher(">", "20").matches("21")
        assert RangeMatcher(">=", "20").matches("20")

    def test_numeric_not_lexicographic_for_numbers(self):
        # Lexicographically "9" > "12"; numerically 9 < 12.
        assert RangeMatcher("<", "12").matches("9")

    def test_float_bounds(self):
        assert RangeMatcher(">=", "2.5").matches("2.75")
        assert not RangeMatcher(">=", "2.5").matches("2.25")

    def test_lexicographic_fallback_for_strings(self):
        assert RangeMatcher("<", "m").matches("apple")
        assert not RangeMatcher("<", "m").matches("zebra")

    def test_numeric_bound_never_selects_non_numbers(self):
        # room >= 12 must not select "annex"
        assert not RangeMatcher("<", "20").matches("1abc")
        assert not RangeMatcher(">=", "12").matches("annex")

    def test_rejects_empty_bound(self):
        with pytest.raises(ValueError):
            RangeMatcher("<", "")

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            RangeMatcher("==", "5")


class TestParseNumber:
    def test_integers(self):
        assert parse_number("42") == 42
        assert parse_number("-7") == -7

    def test_floats(self):
        assert parse_number("2.5") == 2.5

    def test_non_numeric(self):
        assert parse_number("abc") is None
        assert parse_number("") is None
