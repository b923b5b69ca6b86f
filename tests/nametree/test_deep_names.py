"""Deep-name regression tests (recursion-limit bugfix).

Programmatically-built name-specifiers are not subject to the parser's
``MAX_NAME_DEPTH`` bound, and before the iterative rewrites a ~1000-deep
name blew ``RecursionError`` out of ``AVPair.walk``, ``to_wire``,
``encode_name``, ``NameTree._lookup`` and ``get_name``. These tests push
every one of those paths to 5000 levels — far past any recursion limit —
and must fail on the old recursive code.
"""

import pytest

from repro.naming import AVPair, NameSpecifier
from repro.naming.binary import BinaryNameError, decode_name, encode_name
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree

from ..conftest import count, depth, walk_values
from .fig6_oracle import oracle_get_name

DEPTH = 5000


def deep_name(depth: int = DEPTH) -> NameSpecifier:
    """A concrete single-chain name ``[l0=v[l1=v[...]]]`` of ``depth``."""
    root = AVPair("l0", "v")
    node = root
    for level in range(1, depth):
        child = AVPair(f"l{level}", "v")
        node.add_child(child)
        node = child
    name = NameSpecifier()
    name.add_pair(root)
    return name


def chain_tokens(name: NameSpecifier):
    """(attribute, value) pairs of a single-chain name, iteratively."""
    tokens = []
    pairs = name._roots
    while pairs:
        assert len(pairs) == 1, "not a chain"
        pair = pairs[0]
        tokens.append((pair.attribute, pair.value))
        pairs = pair._children
    return tokens


@pytest.fixture(scope="module")
def name():
    return deep_name()


def test_walk_and_depth_and_count(name):
    assert depth(name) == DEPTH
    assert count(name) == DEPTH
    assert sum(1 for _ in name.walk()) == DEPTH


def test_is_concrete_and_require_concrete(name):
    assert name.is_concrete()
    name.require_concrete()  # must not raise (nor recurse)


def test_to_wire(name):
    wire = name.to_wire()
    assert wire.startswith("[l0=v[l1=v[")
    assert wire.endswith("]" * DEPTH)


def test_canonical_key(name):
    key = name.canonical_key()
    assert key[0][0] == "l0"
    # Hashable all the way down (used as the lookup memo key).
    assert isinstance(hash(key), int)


def test_binary_round_trip_with_lifted_bound(name):
    frame = encode_name(name)
    decoded = decode_name(frame, max_depth=None)
    assert chain_tokens(decoded) == chain_tokens(name)
    # Re-encode is byte-identical.
    assert encode_name(decoded) == frame


def test_decode_enforces_default_depth_bound(name):
    # Untrusted frames keep the parser's bound: the same deep frame is
    # rejected, not stack-overflowed.
    with pytest.raises(BinaryNameError, match="deeper"):
        decode_name(encode_name(name))


def test_tree_insert_lookup_get_name(name):
    tree = NameTree()
    record = NameRecord(
        announcer=AnnouncerID.generate("deep"),
        endpoints=[Endpoint(host="deep", port=1)],
    )
    tree.insert(name, record)
    found = tree.lookup(deep_name())  # a distinct, equally-deep query
    assert found == {record}
    # GET-NAME walks back up 5000 levels, iteratively.
    recovered = oracle_get_name(tree, record)
    assert chain_tokens(recovered) == chain_tokens(name)
    # walk_values spans the whole chain without recursion.
    assert sum(1 for _ in walk_values(tree.root)) == DEPTH + 1


def test_tree_remove_deep(name):
    tree = NameTree()
    record = NameRecord(
        announcer=AnnouncerID.generate("deep-rm"),
        endpoints=[Endpoint(host="deep-rm", port=1)],
    )
    tree.insert(name, record)
    assert tree.remove(record)
    assert tree.lookup(deep_name()) == set()
    assert len(tree) == 0
    # Pruning walked 5000 levels back up; the chain is fully gone.
    assert not tree.root.children
