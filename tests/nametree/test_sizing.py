"""Tests for name-tree memory accounting (the Figure 13 instrument)."""

import sys
from collections import namedtuple

from repro.nametree import NameTree, name_tree_bytes, name_tree_megabytes

from ..conftest import make_record, parse


class TestSizing:
    def test_empty_tree_has_nonzero_overhead(self, tree):
        assert name_tree_bytes(tree) > 0

    def test_size_grows_with_insertions(self, tree):
        empty = name_tree_bytes(tree)
        for i in range(50):
            tree.insert(parse(f"[service=s{i}[id=v{i}]]"), make_record(f"h{i}"))
        assert name_tree_bytes(tree) > empty

    def test_size_shrinks_after_removal(self, tree):
        records = []
        for i in range(30):
            record = make_record(f"h{i}")
            tree.insert(parse(f"[service=s{i}]"), record)
            records.append(record)
        full = name_tree_bytes(tree)
        for record in records[:20]:
            tree.remove(record)
        assert name_tree_bytes(tree) < full

    def test_shared_strings_counted_once(self):
        """Two records under the same attribute/value vocabulary add
        records but not vocabulary bytes."""
        one = NameTree()
        one.insert(parse("[a=b]"), make_record("h1"))
        single = name_tree_bytes(one)

        two = NameTree()
        two.insert(parse("[a=b]"), make_record("h1"))
        two.insert(parse("[a=b]"), make_record("h2"))
        double = name_tree_bytes(two)
        # The second identical name costs less than the first one did
        # (no new nodes, no new tokens; just a record).
        assert double - single < single

    def test_megabytes_scaling(self, tree):
        tree.insert(parse("[a=b]"), make_record())
        assert name_tree_megabytes(tree) == name_tree_bytes(tree) / (1024 * 1024)

    def test_the_kept_update_is_this_trees_memory_the_heard_message_is_not(self, tree):
        """What a resolver keeps to say again it allocated; what it
        heard belongs to whoever sent it."""
        message = namedtuple("Message", "name endpoints")
        name, record = parse("[a=b]"), make_record()
        tree.insert(name, record)
        bare = name_tree_bytes(tree)
        record.heard = message(name, tuple(record.endpoints))
        assert name_tree_bytes(tree) == bare
        kept = record.kept_update = message(name, tuple(record.endpoints))
        assert name_tree_bytes(tree) == (
            bare + sys.getsizeof(kept) + sys.getsizeof(kept.endpoints)
        )
