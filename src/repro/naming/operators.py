"""Value-matching operators for name-specifier values.

Section 2.1 of the paper defines exact-value matching plus wild-card
matching (the ``*`` token), and notes that inequality operators
(``<``, ``>``, ``<=``, ``>=``) for range selection were being added.
This module implements all of them behind one small interface:
:func:`classify_value` maps a raw value token to a :class:`ValueMatcher`
and lookup code asks the matcher which concrete advertisement values it
selects.

Advertised values are always concrete literals; operators appear only in
queries. Range operators compare numerically when the advertised value
parses as a number and fall back to lexicographic comparison otherwise,
so ``room < 20`` behaves as users expect for numeric room labels while
still being total over free-form strings.
"""

from __future__ import annotations

from typing import Optional, Union

#: The wild-card token from the paper: matches every value.
WILDCARD = "*"

#: Range-operator prefixes, longest first so ``<=`` wins over ``<``.
_RANGE_OPERATORS = ("<=", ">=", "<", ">")


def parse_number(text: str) -> Optional[Union[int, float]]:
    """Return ``text`` as an int or float, or None if non-numeric."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return None


class ValueMatcher:
    """Decides whether a query value selects an advertised literal."""

    #: True when the matcher can select more than one concrete value and
    #: lookup must therefore scan an attribute-node's children (the
    #: wild-card path of LOOKUP-NAME) rather than hash to one value-node.
    is_multi = False

    def matches(self, advertised: str) -> bool:
        raise NotImplementedError


class LiteralMatcher(ValueMatcher):
    """Exact-value matching: the normal case."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def matches(self, advertised: str) -> bool:
        return advertised == self.value

    def __repr__(self) -> str:
        return f"LiteralMatcher({self.value!r})"


class WildcardMatcher(ValueMatcher):
    """The ``*`` token: matches every advertised value."""

    is_multi = True

    def matches(self, advertised: str) -> bool:
        return True

    def __repr__(self) -> str:
        return "WildcardMatcher()"


class RangeMatcher(ValueMatcher):
    """An inequality such as ``<20`` or ``>=5.5``.

    A numeric bound compares numerically and matches only numeric
    advertised values (``room >= 12`` should not select ``annex``); a
    non-numeric bound compares lexicographically against everything.
    """

    is_multi = True

    __slots__ = ("operator", "bound", "_numeric_bound")

    def __init__(self, operator: str, bound: str) -> None:
        if operator not in _RANGE_OPERATORS:
            raise ValueError(f"unknown range operator: {operator!r}")
        if not bound:
            raise ValueError("range operator requires a bound value")
        self.operator = operator
        self.bound = bound
        self._numeric_bound = parse_number(bound)

    def matches(self, advertised: str) -> bool:
        numeric = parse_number(advertised)
        if self._numeric_bound is not None:
            if numeric is None:
                return False  # numeric bound never selects non-numbers
            left, right = numeric, self._numeric_bound
        else:
            left, right = advertised, self.bound  # lexicographic bound
        if self.operator == "<":
            return left < right
        if self.operator == ">":
            return left > right
        if self.operator == "<=":
            return left <= right
        return left >= right

    def __repr__(self) -> str:
        return f"RangeMatcher({self.operator!r}, {self.bound!r})"


def is_wildcard(value: str) -> bool:
    """True if ``value`` is the wild-card token."""
    return value == WILDCARD


def is_operator_value(value: str) -> bool:
    """True if ``value`` is a wild-card or starts with a range operator.

    Every range operator begins with ``<`` or ``>``, so one character
    test suffices — this predicate runs once per av-pair on the
    advertisement ingestion path and must stay allocation-free.
    """
    if value == WILDCARD:
        return True
    return bool(value) and value[0] in "<>"


def classify_value(value: str) -> ValueMatcher:
    """Map a raw value token to the matcher implementing its semantics."""
    if is_wildcard(value):
        return WildcardMatcher()
    for operator in _RANGE_OPERATORS:
        if value.startswith(operator):
            return RangeMatcher(operator, value[len(operator):])
    return LiteralMatcher(value)
