"""Tests for name-tree memory accounting (the Figure 13 instrument)."""

import sys
from collections import namedtuple

from repro.nametree import NameTree, name_tree_bytes

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

    def test_the_kept_update_is_this_trees_memory_the_heard_message_is_not(self, tree):
        """What a resolver keeps to say again it allocated; what it
        heard belongs to whoever sent it."""
        message = namedtuple("Message", "name endpoints")
        name, record = parse("[a=b]"), make_record()
        tree.insert(name, record)
        bare = name_tree_bytes(tree)
        record.heard = message(name, tuple(record.endpoints))
        assert name_tree_bytes(tree) == bare
        # The update says again the record's own endpoints tuple, which
        # the record's walk has already counted.
        kept = record.kept_update = message(name, record.endpoints)
        assert name_tree_bytes(tree) == bare + sys.getsizeof(kept)


class TestIndexes:
    """The tree's own indexes are its memory: the walk counts each
    container, byte for byte."""

    @staticmethod
    def _padded(index):
        padded = dict(index)
        padded.update((("padding", i), None) for i in range(1000))
        return padded

    def test_the_announcer_index_is_counted(self, tree):
        tree.insert(parse("[a=b]"), make_record())
        before, index = name_tree_bytes(tree), tree._by_announcer
        tree._by_announcer = padded = self._padded(index)
        assert name_tree_bytes(tree) - before == (
            sys.getsizeof(padded) - sys.getsizeof(index)
        )

    def test_the_retained_text_index_is_counted(self, tree):
        name = parse("[a=b]")
        name.to_wire()  # sized, so the graft retains it by its text
        tree.insert(name, make_record())
        assert tree._by_text
        before, index = name_tree_bytes(tree), tree._by_text
        tree._by_text = padded = self._padded(index)
        assert name_tree_bytes(tree) - before == (
            sys.getsizeof(padded) - sys.getsizeof(index)
        )

    def test_the_lookup_memo_and_its_result_sets_are_counted(self, tree):
        for i in range(4):
            tree.insert(parse(f"[service=cam[id=c{i}]][room=r{i % 2}]"), make_record(f"h{i}"))
        # An intersection: a result set no value-node holds.
        assert len(tree.lookup(parse("[service=cam][room=r1]"))) == 2
        memo = tree._memo
        (result,) = memo.values()
        with_memo = name_tree_bytes(tree)
        tree._memo = type(memo)()
        assert with_memo - name_tree_bytes(tree) == (
            sys.getsizeof(memo) - sys.getsizeof(tree._memo) + sys.getsizeof(result)
        )
