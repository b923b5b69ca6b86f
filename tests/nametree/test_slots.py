"""Record slots and value-node bitmaps.

Each record grafted into a ``NameTree`` holds a slot, a small int, and
each value-node holds the bitmap of its records' slots, stored from its
lowest slot up; LOOKUP-NAME works on those ints and decodes its answer
into records. These cases pin the decode at the bitmap's edges and on a
wide answer, the empty answer, a node's bitmap following its lowest
slot, slot reuse after expiry, and a record moving from one tree to
another; the state machine (``test_tree_state_machine.py``) checks
every bitmap and the slot table's bound after every rule.
"""

from repro.nametree import NameTree

from ..conftest import make_record, parse

#: The slots whose records the decode cases ask for: the first, one
#: past a 64-bit word, and one past 4,096 bits.
EDGE_SLOTS = (0, 70, 4096)


def _filled(count: int, memoize: bool = True) -> NameTree:
    """``count`` records, record ``i`` at slot ``i`` under ``[id=i]``;
    the records at EDGE_SLOTS also carry ``[edge=yes]``."""
    tree = NameTree(memoize=memoize)
    for index in range(count):
        edge = "yes" if index in EDGE_SLOTS else "no"
        tree.insert(parse(f"[id={index}][edge={edge}]"), make_record(f"h{index}"))
    return tree


def _live_slots(tree: NameTree):
    return sorted(record.slot for record in tree.records())


class TestDecode:
    def test_one_record_at_each_edge(self):
        for memoize in (True, False):
            tree = _filled(4100, memoize)
            for slot in EDGE_SLOTS:
                (found,) = tree.lookup(parse(f"[id={slot}]"))
                assert found.slot == slot
                assert found.announcer.host == f"h{slot}"

    def test_one_answer_spanning_the_edges(self):
        tree = _filled(4100)
        found = tree.lookup(parse("[edge=yes]"))
        assert sorted(record.slot for record in found) == list(EDGE_SLOTS)
        assert tree._records_of(1 << 4096) == [tree._slots[4096]]

    def test_wide_answers_in_slot_order(self):
        tree = _filled(4100)
        assert len(tree.lookup(parse("[id=*]"))) == 4100
        # Every word holds a record (the binary-digit pass), and most
        # words hold none (the word-by-word pass).
        for step in (1, 3, 61, 200):
            slots = list(range(5, 4100, step))
            bits = sum(1 << slot for slot in slots)
            assert [record.slot for record in tree._records_of(bits)] == slots

    def test_empty_answers(self):
        tree = _filled(100)
        assert tree.lookup(parse("[id=nope]")) == set()
        assert tree.lookup(parse("[id=5][edge=yes]")) == set()
        assert tree._records_of(0) == []
        assert NameTree().lookup(parse("[id=1]")) == set()


class TestNodeBitmaps:
    def test_a_node_holds_its_slots_from_the_lowest_up(self):
        tree = _filled(300)
        (leaf,) = tree.lookup(parse("[id=299]")).pop().attachments[:1]
        assert (leaf.bits, leaf.offset) == (1, 299)  # one bit, however high its slot
        edge = tree._records_of(1 << 70).pop().attachments[1]
        assert edge.offset == 0 and edge.bits == (1 | 1 << 70)
        tree.remove(tree._slots[0])
        assert (edge.bits, edge.offset) == (1, 70)  # shifted down to the next lowest
        tree.insert(parse("[id=a][edge=yes]"), make_record("low"))  # takes slot 0 again
        assert (edge.bits, edge.offset) == (1 | 1 << 70, 0)
        assert {r.announcer.host for r in tree.lookup(parse("[edge=yes]"))} == {"low", "h70"}


class TestSlotReuse:
    def test_expiry_frees_slots_and_a_regraft_takes_a_freed_one(self):
        tree = NameTree()
        for index in range(10):
            lifetime = 100.0 if index in (3, 7) else 5.0
            tree.insert(parse(f"[id={index}][all=1]"),
                        make_record(f"h{index}", expires_at=lifetime))
        tree.lookup(parse("[all=1]"))
        assert len(tree.expire(now=10.0)) == 8
        assert _live_slots(tree) == [3, 7]
        assert sorted(tree._free) == [0, 1, 2, 4, 5, 6, 8, 9]
        assert tree.root.subtree_bits(tree._epoch) == (1 << 3) | (1 << 7)
        for index in range(10, 13):
            tree.insert(parse(f"[id={index}][all=1]"), make_record(f"h{index}"))
        live = _live_slots(tree)
        assert len(live) == 5 and set(live) - {3, 7} <= {0, 1, 2, 4, 5, 6, 8, 9}
        assert len(tree._slots) == 10 and len(tree._free) == 5
        assert {r.announcer.host for r in tree.lookup(parse("[all=1]"))} == {
            "h3", "h7", "h10", "h11", "h12"
        }
        assert tree.lookup(parse("[id=0]")) == set()  # a freed slot's old record
        assert {r.announcer.host for r in tree.lookup(parse("[id=10]"))} == {"h10"}


class TestMovingBetweenTrees:
    def test_a_record_takes_the_new_trees_slot(self):
        first, second = NameTree(), NameTree(vspace="other")
        moving, resident = make_record("mover"), make_record("resident")
        first.insert(parse("[service=camera]"), moving)
        first.insert(parse("[service=printer]"), make_record("stays"))
        second.insert(parse("[service=camera]"), resident)
        assert moving.slot == 0
        first.remove(moving)
        assert moving.slot is None and first._free == [0]
        second.insert(parse("[service=camera[room=510]]"), moving)
        assert moving.slot == 1 and second._slots[1] is moving
        assert first.lookup(parse("[service=camera]")) == set()
        assert second.lookup(parse("[service=camera]")) == {moving, resident}
        assert second.lookup(parse("[service=camera[room=511]]")) == {resident}
