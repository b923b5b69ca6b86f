"""Internal nodes of a name-tree (Section 2.3.1, Figure 4).

A name-tree consists of alternating layers of *attribute-nodes*, which
contain orthogonal attributes, and *value-nodes*, which contain the
possible values of their parent attribute. Value-nodes point to
the name-records of advertisements whose name-specifier ends there;
here that pointer set is a bitmap over the owning tree's record slots,
stored from the node's lowest slot up. The tree root behaves like a
value-node with no value.
"""

from __future__ import annotations

from typing import Dict, Optional


class ValueNode:
    """A possible value of an attribute, with child attribute-nodes."""

    __slots__ = (
        "value",
        "parent",
        "children",
        "bits",
        "offset",
        "_sub_bits",
        "_sub_epoch",
    )

    def __init__(
        self,
        value: Optional[str],
        parent: Optional["AttributeNode"],
    ) -> None:
        self.value = value
        self.parent = parent
        #: child attribute-nodes, keyed by attribute for O(1) descent
        self.children: Dict[str, AttributeNode] = {}
        #: the records whose advertised name-specifier has a leaf at this
        #: node, as a bitmap of their slots in the owning tree shifted
        #: down by ``offset`` (bit ``i`` is ``NameTree``'s slot
        #: ``offset + i``, and bit 0 is set while any is): a node's
        #: records are ``bits << offset``. Stored from the lowest slot so
        #: a node costs the span of its slots, not the highest one;
        #: maintained by ``add_slot`` / ``drop_slot``.
        self.bits = 0
        self.offset = 0
        #: the bitmap of every record at or below this interior node,
        #: valid only while the owning tree's epoch equals
        #: ``_sub_epoch``. LOOKUP-NAME consults it so wildcard-heavy (and
        #: deep concrete) queries stop re-scanning unchanged subtrees; a
        #: membership change advances the tree epoch, which invalidates
        #: every cache by key without touching the nodes. A leaf's
        #: subtree is its own records and is never cached.
        self._sub_bits = 0
        self._sub_epoch = -1

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def ensure_child(self, attribute: str) -> "AttributeNode":
        """The attribute-node for ``attribute``, created if absent."""
        node = self.children.get(attribute)
        if node is None:
            node = AttributeNode(attribute, self)
            self.children[attribute] = node
        return node

    def add_slot(self, slot: int) -> None:
        """Attach the record in ``slot`` (not attached here yet)."""
        bits = self.bits
        if not bits:
            self.bits = 1
            self.offset = slot
        elif slot > self.offset:
            self.bits = bits | 1 << (slot - self.offset)
        else:
            self.bits = bits << (self.offset - slot) | 1
            self.offset = slot

    def drop_slot(self, slot: int) -> None:
        """Detach the record in ``slot`` (attached here)."""
        bits = self.bits ^ 1 << (slot - self.offset)
        if bits and not bits & 1:
            shift = (bits & -bits).bit_length() - 1
            bits >>= shift
            self.offset += shift
        self.bits = bits

    def subtree_bits(self, epoch: int) -> int:
        """The bitmap of all records attached at or below this
        value-node, cached under the owning tree's ``epoch``.

        This is the union LOOKUP-NAME computes for wild-card matching
        and for queries that end above the advertisement's leaf
        (omitted query attributes are wild-cards). The first call after
        a membership change ORs the subtree's bitmaps together; every
        later call at the same epoch returns the cached int.
        """
        if self._sub_epoch == epoch:
            return self._sub_bits
        bits = self.bits << self.offset
        stack = list(self.children.values())
        pop = stack.pop
        extend = stack.extend
        while stack:
            attribute_node = pop()
            for value_node in attribute_node.children.values():
                if not value_node.children:
                    bits |= value_node.bits << value_node.offset
                elif value_node._sub_epoch == epoch:
                    # A child whose cache is valid contributes its
                    # whole subtree at once; no need to re-walk it.
                    bits |= value_node._sub_bits
                else:
                    bits |= value_node.bits << value_node.offset
                    extend(value_node.children.values())
        self._sub_bits = bits
        self._sub_epoch = epoch
        return bits

    def prune_upwards(self) -> None:
        """Remove this node, and now-empty ancestors, from the tree.

        Called after detaching a record; keeps the tree from
        accumulating dead branches as soft-state expires.
        """
        node: Optional[ValueNode] = self
        while node is not None and not node.is_root:
            if node.bits or node.children:
                return
            attribute_node = node.parent
            assert attribute_node is not None
            del attribute_node.children[node.value]  # type: ignore[arg-type]
            parent_value = attribute_node.parent
            if attribute_node.children:
                return
            del parent_value.children[attribute_node.attribute]
            node = parent_value

    def __repr__(self) -> str:
        label = "<root>" if self.is_root else self.value
        records = bin(self.bits).count("1")
        return f"ValueNode({label}, records={records}, children={len(self.children)})"


class AttributeNode:
    """An orthogonal attribute, with one value-node per known value."""

    __slots__ = ("attribute", "parent", "children")

    def __init__(self, attribute: str, parent: ValueNode) -> None:
        self.attribute = attribute
        self.parent = parent
        #: child value-nodes keyed by value for O(1) exact-match descent
        self.children: Dict[str, ValueNode] = {}

    def ensure_child(self, value: str) -> ValueNode:
        """The value-node for ``value``, created if absent."""
        node = self.children.get(value)
        if node is None:
            node = ValueNode(value, self)
            self.children[value] = node
        return node

    def __repr__(self) -> str:
        return f"AttributeNode({self.attribute}, values={len(self.children)})"
