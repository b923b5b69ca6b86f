"""Attribute-value pairs, the building block of name-specifiers.

An av-pair (Section 2.1) is an attribute (a category, e.g. ``city``)
bound to a value (the classification, e.g. ``washington``), with child
av-pairs that are only meaningful in the context of this pair. Children
with distinct attributes are *orthogonal*; a child whose meaning depends
on this pair is a *descendant* of it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional, Tuple

from .errors import DuplicateAttributeError, InvalidTokenError, SealedNameError

#: Characters that cannot appear inside attribute or value tokens
#: because they are structural in the wire format.
RESERVED_CHARACTERS = frozenset("[]=")


def validate_token(token: str, kind: str) -> str:
    """Check that ``token`` is a legal attribute or value token.

    Tokens are free-form strings, but the wire format reserves
    ``[``, ``]`` and ``=`` and forbids embedded whitespace (whitespace is
    a token separator). The single exception: a *value* may begin with a
    range operator (``<=`` / ``>=``), whose ``=`` the parser also knows
    how to carry. Returns the token so calls can be inlined.
    """
    if not token:
        raise InvalidTokenError(f"empty {kind} token")
    body = token
    if kind == "value" and token[:2] in ("<=", ">="):
        body = token[2:]
    for ch in body:
        if ch in RESERVED_CHARACTERS or ch.isspace():
            raise InvalidTokenError(
                f"{kind} token {token!r} contains reserved character {ch!r}"
            )
    return token


_attribute_of = attrgetter("attribute")


def duplicate_error(attribute: str, parent: Optional["AVPair"]) -> DuplicateAttributeError:
    """A second sibling classifies ``attribute`` under ``parent`` (None: at the top level)."""
    where = "at the top level" if parent is None else f"under {parent.attribute}={parent.value}"
    return DuplicateAttributeError(f"av-pair with attribute {attribute!r} already present {where}")


def _sibling_key(pairs) -> tuple:
    """The order-insensitive key of sibling av-pairs that are all keyed."""
    return tuple(sorted([pair._key_cache for pair in pairs]))


def _pair_key(pair: "AVPair") -> tuple:
    """The canonical-key tuple of ``pair``, whose children are all keyed.

    With :func:`_sibling_key`, the one place the shape of a key is
    decided: ``canonical_key`` (here and on the name) fills caches with
    them, and the parser seals each group with them at its ``]``.
    """
    return (pair.attribute, pair.value, _sibling_key(pair._children))


class AVPair:
    """One attribute-value pair and its dependent children.

    The children are a tuple in insertion order (a leaf shares the empty
    one): siblings are few, so a scan finds one, and a tuple weighs a
    fraction of a dict. Builders check sibling-attribute orthogonality.

    Sealed, like the name it belongs to, once its canonical key has
    been taken (see :class:`NameSpecifier`).
    """

    __slots__ = ("attribute", "value", "_children", "_key_cache")

    def __init__(self, attribute: str, value: str) -> None:
        self.attribute = validate_token(attribute, "attribute")
        self.value = validate_token(value, "value")
        self._children: Tuple["AVPair", ...] = ()
        # canonical_key(), once taken; it is never cleared, and its
        # presence is the seal. A key is assembled from keyed children
        # only, so a keyed pair's whole subtree is keyed and sealed too.
        self._key_cache: Optional[tuple] = None

    @classmethod
    def _unchecked(cls, attribute: str, value: str) -> "AVPair":
        """``AVPair(attribute, value)`` minus the token validation.

        For the parser, whose tokeniser has already proved both tokens
        legal, and for :meth:`copy`, whose source did. The pair is
        unkeyed, so its builder can hang children under it.
        """
        pair = cls.__new__(cls)
        pair.attribute = attribute
        pair.value = value
        pair._children = ()
        pair._key_cache = None
        return pair

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def add_child(self, child: "AVPair") -> "AVPair":
        """Attach ``child`` as a dependent av-pair; returns ``child``.

        Raises :class:`DuplicateAttributeError` when a sibling already
        classifies the same attribute, :class:`SealedNameError` once
        this pair's canonical key has been taken.
        """
        if self._key_cache is not None:
            raise SealedNameError(f"{self!r} is keyed: edit a copy()")
        children = self._children
        if child.attribute in map(_attribute_of, children):
            raise duplicate_error(child.attribute, self)
        self._children = children + (child,)
        return child

    def add(self, attribute: str, value: str) -> "AVPair":
        """Create an av-pair and attach it; returns the new child."""
        return self.add_child(AVPair(attribute, value))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def children(self) -> Tuple["AVPair", ...]:
        """The dependent av-pairs, in insertion order."""
        return self._children

    def child(self, attribute: str) -> Optional["AVPair"]:
        """The child av-pair classifying ``attribute``, or None."""
        for child in self._children:
            if child.attribute == attribute:
                return child
        return None

    @property
    def is_leaf(self) -> bool:
        """True when this av-pair has no dependent children."""
        return not self._children

    def walk(self) -> Iterator["AVPair"]:
        """Yield this pair and every descendant, pre-order.

        Iterative (explicit stack): names built programmatically can be
        arbitrarily deep, and a nested-generator walk would hit the
        interpreter recursion limit a few hundred levels down.
        """
        stack = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            pair = pop()
            yield pair
            extend(pair._children[::-1])

    # ------------------------------------------------------------------
    # Structural equality and canonical ordering
    # ------------------------------------------------------------------
    def canonical_key(self) -> tuple:
        """A hashable key identifying this subtree up to sibling order.

        Computed once: taking it seals the subtree, so repeated key
        computations — hashing, name-tree memo lookups, refresh
        comparisons — cost one attribute read instead of a tree walk.
        """
        cached = self._key_cache
        if cached is not None:
            return cached
        # Post-order over the uncached region: children's keys exist
        # before their parent's is assembled, without Python recursion
        # (deep programmatic names would otherwise blow the stack).
        pending: list = [self]
        order: list = []
        while pending:
            pair = pending.pop()
            if pair._key_cache is None:
                order.append(pair)
                pending.extend(pair._children)
        for pair in reversed(order):
            pair._key_cache = _pair_key(pair)
        return self._key_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AVPair):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def copy(self) -> "AVPair":
        """A deep copy of this subtree, unsealed at every depth (iterative,
        depth-safe; the source is legal, so each group is stored unchecked)."""
        new = AVPair._unchecked
        duplicate = new(self.attribute, self.value)
        stack = [(self, duplicate)]
        while stack:
            source, target = stack.pop()
            twins = target._children = tuple(
                [new(child.attribute, child.value) for child in source._children]
            )
            stack.extend(zip(source._children, twins))
        return duplicate

    def __repr__(self) -> str:
        return f"AVPair({self.attribute}={self.value}, children={len(self._children)})"
