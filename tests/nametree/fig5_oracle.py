"""The Figure 5 oracle: LOOKUP-NAME transcribed from the paper, recursive
and uncached, over the node structure (``children``) and each value-node's
record set as plain Python sets, derived from the live records' leaf
value-nodes — no frames, no bitmaps, no subtree caches, no memo. It is
the reference ``NameTree.lookup`` is differentially tested against.

Three readings the paper leaves open are settled here the way
``repro.nametree.tree`` settles them (PROTOCOL.md §3 states the second):

- "the set of all possible name-records" at a value-node T is every
  record in T's subtree (nothing else can match a pair that descended
  to T), so a level that applies no constraint matches all of it;
- "the name-records of Tv" is likewise Tv's whole subtree: omitted
  attributes are wild-cards for advertisements as well as queries;
- a range value (``<20``) selects values the way ``*`` does, by union.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.naming import AVPair, NameSpecifier, classify_value
from repro.nametree import NameRecord, NameTree, ValueNode

#: The records each value-node points to (Figure 4), as plain sets.
Pointers = Dict[ValueNode, Set[NameRecord]]


def record_pointers(tree: NameTree) -> Pointers:
    """Each value-node's name-records, derived from the live records'
    own leaf value-nodes (``attachments``), not from how the tree
    stores them."""
    pointers: Pointers = {}
    for record in tree.records():
        for value_node in record.attachments:
            pointers.setdefault(value_node, set()).add(record)
    return pointers


def subtree_records(value_node: ValueNode, pointers: Pointers) -> Set[NameRecord]:
    """All of the name-records in the subtree rooted at ``value_node``."""
    found = set(pointers.get(value_node, ()))
    for attribute_node in value_node.children.values():
        for child in attribute_node.children.values():
            found |= subtree_records(child, pointers)
    return found


def lookup_name(T: ValueNode, n: Iterable[AVPair], pointers: Pointers) -> Set[NameRecord]:
    """LOOKUP-NAME(T, n), line for line."""
    S = subtree_records(T, pointers)
    for p in n:
        Ta = T.children.get(p.attribute)
        if Ta is None:
            continue
        matcher = classify_value(p.value)
        if matcher.is_multi:  # wild-card (or range) matching
            S_prime: Set[NameRecord] = set()
            for value, Tv in Ta.children.items():
                if matcher.matches(value):
                    S_prime |= subtree_records(Tv, pointers)
            S &= S_prime
        else:  # normal matching
            Tv = Ta.children.get(p.value)
            if Tv is None:
                S = set()
            elif not Tv.children or p.is_leaf:
                S &= subtree_records(Tv, pointers)
            else:
                S &= lookup_name(Tv, p.children, pointers)
    return S | pointers.get(T, set())


def oracle_lookup(tree: NameTree, name: NameSpecifier) -> Set[NameRecord]:
    """What ``tree.lookup(name)`` must return."""
    return lookup_name(tree.root, name._roots, record_pointers(tree))
