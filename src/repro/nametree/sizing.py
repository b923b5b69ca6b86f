"""Memory accounting for name-trees (used by the Figure 13 benchmark).

The paper reports the Java heap allocated to the name-tree as names are
added (about 0.5 MB at a few hundred names to 4 MB at 14300). We measure
the same quantity natively: a deep ``sys.getsizeof`` walk over the tree's
nodes, dictionaries, records and strings, deduplicating shared objects by
identity so interned attribute/value strings are counted once, exactly as
they are stored once.

The walk does not follow ``NameRecord.advertised_name``, the grafted
name-specifier GET-NAME answers with: that value came from whoever
advertised it (the service, or the message it arrived in) and every
other tree that grafted it holds the same object, so it is not memory
this tree allocated — the paper's figure is likewise the tree's heap,
not the senders'. (A caller that grafts a name and drops its own
reference leaves the record as the last holder; those bytes are then
kept alive by the tree and still not counted here.)

A record's ``endpoints`` is the tuple of a message it was built or
refreshed from; it is counted once, with the record, however many
holders share it.

Of the two message references a record carries, ``kept_update`` is this
tree's memory — its resolver built the update and is the one that keeps
it alive from round to round — so the update object is counted (its
name, announcer and endpoints are the shared objects already counted,
or not, above: the update says again the record's own endpoints tuple).
``heard`` is its sender's: the
advertisement a service re-sends, or the update a neighbor keeps on its
own record, would exist without this tree, and is not counted. (A tree
filled directly, as Figure 13's is, has neither.)

The tree's own indexes are counted as containers: ``_by_announcer``
(its keys are the records' AnnouncerIDs, counted with the records),
``_by_text`` (its keys are the grafted names' cached wire texts and its
values the names, both the senders', as above) and the LOOKUP-NAME memo
with the frozen result sets it holds (its keys are the queries' canonical
keys, cached on the query names).
"""

from __future__ import annotations

import sys
from typing import Set

from .nodes import ValueNode
from .record import NameRecord
from .tree import NameTree


def _sizeof(obj: object, seen: Set[int]) -> int:
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    return sys.getsizeof(obj)


def _record_size(record: NameRecord, seen: Set[int]) -> int:
    total = _sizeof(record, seen)
    total += _sizeof(record.announcer, seen)
    total += _sizeof(record.announcer.host, seen)
    total += _sizeof(record.endpoints, seen)
    for endpoint in record.endpoints:
        total += _sizeof(endpoint, seen)
        total += _sizeof(endpoint.host, seen)
        total += _sizeof(endpoint.transport, seen)
    total += _sizeof(record.route, seen)
    if record.route.next_hop is not None:
        total += _sizeof(record.route.next_hop, seen)
    total += _sizeof(record.attachments, seen)
    if record.kept_update is not None:
        total += _sizeof(record.kept_update, seen)
        total += _sizeof(record.kept_update.endpoints, seen)
    return total


def name_tree_bytes(tree: NameTree) -> int:
    """Resident bytes of ``tree``: nodes, dicts, records and strings."""
    seen: Set[int] = set()
    total = _sizeof(tree, seen)
    total += _sizeof(tree._by_announcer, seen)
    total += _sizeof(tree._by_text, seen)
    total += _sizeof(tree._memo, seen)
    for result in tree._memo.values():
        total += _sizeof(result, seen)
    stack = [tree.root]
    while stack:
        value_node = stack.pop()
        total += _sizeof(value_node, seen)
        if value_node.value is not None:
            total += _sizeof(value_node.value, seen)
        total += _sizeof(value_node.children, seen)
        total += _sizeof(value_node.records, seen)
        if value_node._sub_fs is not None:
            # The memoized subtree frozenset is resident memory the tree
            # owns; its record elements are deduplicated by identity.
            total += _sizeof(value_node._sub_fs, seen)
        for record in value_node.records:
            total += _record_size(record, seen)
        for attribute_node in value_node.children.values():
            total += _sizeof(attribute_node, seen)
            total += _sizeof(attribute_node.attribute, seen)
            total += _sizeof(attribute_node.children, seen)
            stack.extend(attribute_node.children.values())
    return total
