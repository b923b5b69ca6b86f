"""Internal nodes of a name-tree (Section 2.3.1, Figure 4).

A name-tree consists of alternating layers of *attribute-nodes*, which
contain orthogonal attributes, and *value-nodes*, which contain the
possible values of their parent attribute. Value-nodes carry pointers
to the name-records of advertisements whose name-specifier ends there.
The tree root behaves like a value-node with no value.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .record import NameRecord


class ValueNode:
    """A possible value of an attribute, with child attribute-nodes."""

    __slots__ = (
        "value",
        "parent",
        "children",
        "records",
        "ptr",
        "_sub_fs",
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
        #: records whose advertised name-specifier has a leaf at this node
        self.records: Set["NameRecord"] = set()
        #: transient pointer used by GET-NAME (Figure 6); None outside it
        self.ptr = None
        #: lazily-built set of every record at or below this node, valid
        #: only while the owning tree's epoch equals ``_sub_epoch``. A
        #: frozenset for interior nodes; for leaves it aliases
        #: ``records`` outright.
        #: LOOKUP-NAME consults it so wildcard-heavy (and deep concrete)
        #: queries stop re-scanning unchanged subtrees; a membership
        #: change advances the tree epoch, which invalidates every cache
        #: by key without touching the nodes. Consumers must treat it as
        #: read-only.
        self._sub_fs: Optional[FrozenSet["NameRecord"]] = None
        self._sub_epoch: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def child(self, attribute: str) -> Optional["AttributeNode"]:
        return self.children.get(attribute)

    def ensure_child(self, attribute: str) -> "AttributeNode":
        """The attribute-node for ``attribute``, created if absent."""
        node = self.children.get(attribute)
        if node is None:
            node = AttributeNode(attribute, self)
            self.children[attribute] = node
        return node

    def subtree_frozen(self, epoch: int) -> FrozenSet["NameRecord"]:
        """All records attached at or below this value-node, as a cached
        frozenset keyed by the owning tree's ``epoch``.

        This is the union LOOKUP-NAME computes for wild-card matching
        and for queries that end above the advertisement's leaf
        (omitted query attributes are wild-cards). The first call after
        a membership change rebuilds the set by traversal; every later
        call at the same epoch returns the cached object, so the
        unions and intersections of LOOKUP-NAME operate on shared
        frozensets instead of walking the subtree per query. Callers
        must not mutate the result (take ``set(...)`` to own a copy).
        """
        if self._sub_epoch == epoch:
            return self._sub_fs
        if not self.children:
            # A leaf's subtree IS its record set: alias it instead of
            # copying (leaf builds dominate a cold pass). The read-only
            # discipline holds because LOOKUP-NAME never mutates
            # candidate sets and the public API copies at the boundary;
            # a membership change advances the epoch, which retires the
            # alias before the records set is ever served stale.
            frozen = self.records
        else:
            collected = set(self.records)
            update = collected.update
            stack = list(self.children.values())
            pop = stack.pop
            extend = stack.extend
            while stack:
                attribute_node = pop()
                for value_node in attribute_node.children.values():
                    # A child whose cache is valid contributes its
                    # whole subtree at once; no need to re-walk it.
                    if value_node._sub_epoch == epoch:
                        update(value_node._sub_fs)
                    else:
                        update(value_node.records)
                        if value_node.children:
                            extend(value_node.children.values())
                        else:
                            # Caching a traversed leaf costs two slot
                            # stores; later queries that constrain on it
                            # directly then skip the build call.
                            value_node._sub_fs = value_node.records
                            value_node._sub_epoch = epoch
            frozen = frozenset(collected)
        self._sub_fs = frozen
        self._sub_epoch = epoch
        return frozen

    def walk_values(self) -> Iterator["ValueNode"]:
        """Yield this value-node and every value-node below it.

        Iterative: name-trees grown from deep programmatic names would
        exhaust the interpreter stack under a nested-generator walk.
        """
        stack = [self]
        while stack:
            value_node = stack.pop()
            yield value_node
            for attribute_node in list(value_node.children.values())[::-1]:
                stack.extend(list(attribute_node.children.values())[::-1])

    def prune_upwards(self) -> None:
        """Remove this node, and now-empty ancestors, from the tree.

        Called after detaching a record; keeps the tree from
        accumulating dead branches as soft-state expires.
        """
        node: Optional[ValueNode] = self
        while node is not None and not node.is_root:
            if node.records or node.children:
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
        return f"ValueNode({label}, records={len(self.records)}, children={len(self.children)})"


class AttributeNode:
    """An orthogonal attribute, with one value-node per known value."""

    __slots__ = ("attribute", "parent", "children")

    def __init__(self, attribute: str, parent: ValueNode) -> None:
        self.attribute = attribute
        self.parent = parent
        #: child value-nodes keyed by value for O(1) exact-match descent
        self.children: Dict[str, ValueNode] = {}

    def child(self, value: str) -> Optional[ValueNode]:
        return self.children.get(value)

    def ensure_child(self, value: str) -> ValueNode:
        """The value-node for ``value``, created if absent."""
        node = self.children.get(value)
        if node is None:
            node = ValueNode(value, self)
            self.children[value] = node
        return node

    def __repr__(self) -> str:
        return f"AttributeNode({self.attribute}, values={len(self.children)})"
