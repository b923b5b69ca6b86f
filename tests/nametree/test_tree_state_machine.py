"""The name-tree as a state machine: any interleaving of what a resolver
does to it leaves it equal to the paper's figures and holding only
sealed names.

Rules: advertise a new name / refresh with the grafted object, an equal
copy, a reordered copy, a message heard before / rename / remove / remove
and graft anew / let time pass / expire / look up literal, wild-card and
range queries — over a tree with the lookup memo on or off. After every rule:

- ``lookup`` is the literal Figure 5 (``fig5_oracle``) on every query;
- ``get_name`` is the object grafted, and it is Figure 6's answer
  (``fig6_oracle``) in wire text and in key;
- ``advertised(text)`` is a live record's own name spelling ``text``,
  and the index holds no more entries than the tree has records;
- the epoch has not run backwards;
- each value-node's bitmap, stored from its lowest slot, is exactly the
  slots of the live records attached there, no freed slot's bit is set
  in any bitmap, and live slots are distinct, below the slot table's
  length, which never exceeds the peak live record count;
- nothing the tree hands out can be written to.
"""

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.naming import AVPair, NameSpecifier, SealedNameError
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree
from repro.nametree import tree as tree_module

from ..conftest import walk_values
from .fig5_oracle import oracle_lookup
from .fig6_oracle import oracle_get_name
from .test_refresh import Message

ANNOUNCERS = [AnnouncerID(host=f"h{index}", startup_time=1.0) for index in range(5)]
QUERIES = [
    NameSpecifier.parse(text)
    for text in (
        "[a=1]", "[a=*]", "[a=<2]", "[b=>=2]", "[a=1[x=2]]", "[a=2[x=*]][b=1]",
        "[b=3[y=<=2]]", "[c=1]", "[a=1][b=*]", "[a=1[x=1[p=*]]]", "",
    )
]

_values = st.sampled_from(["1", "2", "3"])
_leaves = st.dictionaries(st.just("p"), _values, max_size=1)
_children = st.dictionaries(
    st.sampled_from(["x", "y"]), _values | st.tuples(_values, _leaves), max_size=2
)
#: from_dict shapes: one or two of three roots, up to three levels deep
#: — small enough that announcers collide on names, prefixes and whole
#: subtrees.
shapes = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.tuples(_values, _children),
    min_size=1, max_size=2,
)


def _reordered(name: NameSpecifier, rng: random.Random) -> NameSpecifier:
    """A structurally equal name with every sibling list shuffled."""

    def rebuild(pair: AVPair) -> AVPair:
        twin = AVPair(pair.attribute, pair.value)
        children = list(pair.children)
        rng.shuffle(children)
        for child in children:
            twin.add_child(rebuild(child))
        return twin

    roots = list(name._roots)
    rng.shuffle(roots)
    return NameSpecifier([rebuild(root) for root in roots])


class NameTreeMachine(RuleBasedStateMachine):
    @initialize(memoize=st.booleans())
    def plant(self, memoize):
        # A small memo, so eviction is exercised: four results beyond
        # one per record (at most five) against the eleven QUERIES the
        # Figure 5 invariant asks after every rule.
        self._patch = pytest.MonkeyPatch()
        self._patch.setattr(tree_module, "MEMO_CAPACITY", 4)
        self.tree = NameTree(memoize=memoize)
        self.grafted = {}    # announcer -> the name object the tree retains
        self.deadline = {}   # announcer -> what its record's expiry must be
        self.heard = {}      # announcer -> the message refresh() saw last
        self.now = 0.0
        self.epoch = 0
        self.peak = 0        # the most records the tree has held at once

    def teardown(self):
        self._patch.undo()
        if self.tree._memoize:
            assert self.tree.memo_evictions > 0

    # ------------------------------------------------------------------
    def _insert(self, announcer, name, lifetime):
        self.deadline[announcer] = self.now + lifetime
        return self.tree.insert(
            name,
            NameRecord(
                announcer=announcer,
                endpoints=[Endpoint(host=announcer.host, port=1)],
                expires_at=self.now + lifetime,
            ),
        )

    def _refreshed(self, announcer, name, lifetime):
        """``name`` equals what ``announcer`` has grafted: offering it
        is a refresh, whatever object and sibling order it comes as."""
        held = self.grafted[announcer]
        record = self.tree.record_for(announcer)
        epoch = self.tree._epoch
        outcome = self._insert(announcer, name, lifetime)
        assert outcome.record is record and not outcome.created
        assert not outcome.changed
        assert self.tree.get_name(record) is held  # the first graft's object stays
        assert self.tree._epoch == epoch

    @rule(
        announcer=st.sampled_from(ANNOUNCERS), shape=shapes, sized=st.booleans(),
        lifetime=st.sampled_from([3.0, 30.0]),
    )
    def advertise(self, announcer, shape, sized, lifetime):
        """A first advertisement, a rename, or — when the shape drawn
        is the name already grafted — a refresh by an equal name."""
        name = NameSpecifier.from_dict(shape)
        if sized:
            name = NameSpecifier.parse(name.to_wire())  # as off the wire
        held = self.grafted.get(announcer)
        if held is not None and held == name:
            self._refreshed(announcer, name, lifetime)
            return
        outcome = self._insert(announcer, name, lifetime)
        assert outcome.changed and outcome.created == (held is None)
        self.grafted[announcer] = name
        self.heard.pop(announcer, None)

    @precondition(lambda self: self.grafted)
    @rule(
        data=st.data(), how=st.sampled_from(["object", "copy", "reordered"]),
        lifetime=st.sampled_from([3.0, 30.0]), seed=st.integers(0, 1000),
    )
    def refresh(self, data, how, lifetime, seed):
        announcer = data.draw(st.sampled_from(sorted(self.grafted)))
        held = self.grafted[announcer]
        if how == "object":
            name = held
        elif how == "copy":
            name = held.copy()
        else:
            name = _reordered(held, random.Random(seed))
        self._refreshed(announcer, name, lifetime)

    @precondition(lambda self: self.grafted)
    @rule(data=st.data(), again=st.booleans(), lifetime=st.sampled_from([3.0, 30.0]))
    def hear(self, data, again, lifetime):
        """The refresh entry point, with the message it reads from: the
        same object as last time, or an equal new one."""
        announcer = data.draw(st.sampled_from(sorted(self.grafted)))
        record = self.tree.record_for(announcer)
        message = self.heard.get(announcer)
        if message is None or not again:
            message = self.heard[announcer] = Message(
                self.grafted[announcer], tuple(record.endpoints), 0.0
            )
        self.deadline[announcer] = self.now + lifetime
        assert self.tree.refresh(
            record, message.name, message.endpoints, message.metric, None, 0.0,
            self.now + lifetime, message,
        ) is False
        assert record.heard is message

    @precondition(lambda self: self.grafted)
    @rule(data=st.data())
    def remove(self, data):
        announcer = data.draw(st.sampled_from(sorted(self.grafted)))
        record = self.tree.remove_announcer(announcer)
        assert record is not None and record.advertised_name is None
        del self.grafted[announcer], self.deadline[announcer]
        self.heard.pop(announcer, None)

    @precondition(lambda self: self.grafted)
    @rule(data=st.data(), shape=shapes, lifetime=st.sampled_from([3.0, 30.0]))
    def regraft(self, data, shape, lifetime):
        """Remove records, then graft a fresh record for the first one:
        it takes a freed slot, which the next lookups read."""
        removed = data.draw(st.lists(
            st.sampled_from(sorted(self.grafted)), min_size=1, unique=True
        ))
        for announcer in removed:
            assert self.tree.remove_announcer(announcer) is not None
            del self.grafted[announcer], self.deadline[announcer]
            self.heard.pop(announcer, None)
        freed = set(self.tree._free)
        name = NameSpecifier.from_dict(shape)
        outcome = self._insert(removed[0], name, lifetime)
        assert outcome.created and outcome.record.slot in freed
        self.grafted[removed[0]] = name

    @rule(dt=st.sampled_from([1.0, 4.0, 20.0]))
    def pass_time(self, dt):
        self.now += dt

    @rule()
    def expire(self):
        due = {a for a, t in self.deadline.items() if self.now >= t}
        assert {r.announcer for r in self.tree.expire(self.now)} == due
        for announcer in sorted(due):
            del self.grafted[announcer], self.deadline[announcer]
            self.heard.pop(announcer, None)

    @rule(shape=shapes, wild=st.sampled_from(["", "*", "<3", ">=2"]))
    def look_up(self, shape, wild):
        """A generated query beside the fixed ones: some name's shape,
        its first root's value replaced by an operator or left literal."""
        query = NameSpecifier.from_dict(shape)
        if wild:
            query._roots[0].value = wild
        assert self.tree.lookup(query) == oracle_lookup(self.tree, query)

    # ------------------------------------------------------------------
    @invariant()
    def lookup_is_figure_5(self):
        for query in QUERIES:
            assert self.tree.lookup(query) == oracle_lookup(self.tree, query)

    @invariant()
    def get_name_is_the_grafted_object_and_figure_6(self):
        tree = self.tree
        assert {r.announcer for r in tree.records()} == set(self.grafted)
        assert len(tree) == len(self.grafted)
        for record in tree.records():
            retained = tree.get_name(record)
            traced = oracle_get_name(tree, record)
            assert retained is self.grafted[record.announcer]
            assert retained is not traced
            assert retained.to_wire() == traced.to_wire()
            assert retained.canonical_key() == traced.canonical_key()
            assert record.expires_at == self.deadline[record.announcer]

    @invariant()
    def the_index_serves_live_names_by_their_own_text(self):
        tree = self.tree
        assert len(tree._by_text) <= len(tree)
        live = {id(record.advertised_name) for record in tree.records()}
        for text in list(tree._by_text):
            name = tree.advertised(text)
            assert id(name) in live and name.to_wire() == text

    @invariant()
    def value_node_bitmaps_are_the_live_slots(self):
        tree = self.tree
        live = list(tree.records())
        self.peak = max(self.peak, len(live))
        slots = [record.slot for record in live]
        assert len(set(slots)) == len(slots)
        assert all(0 <= slot < len(tree._slots) for slot in slots)
        assert len(tree._slots) <= self.peak
        assert all(tree._slots[record.slot] is record for record in live)
        freed = [slot for slot, held in enumerate(tree._slots) if held is None]
        assert sorted(tree._free) == freed
        expected = {}
        for record in live:
            for value_node in record.attachments:
                expected[value_node] = expected.get(value_node, 0) | 1 << record.slot
        freed_bits = sum(1 << slot for slot in freed)
        for value_node in walk_values(tree.root):
            bits = value_node.bits
            assert bits << value_node.offset == expected.get(value_node, 0)
            assert not bits or bits & 1  # stored from its lowest slot
            if value_node._sub_epoch == tree._epoch:
                assert not value_node._sub_bits & freed_bits

    @invariant()
    def the_epoch_never_runs_backwards(self):
        assert self.tree._epoch >= self.epoch
        self.epoch = self.tree._epoch

    @invariant()
    def what_the_tree_hands_out_is_sealed(self):
        tree = self.tree
        handed_out = [tree.get_name(record) for record in tree.records()]
        handed_out += [tree.advertised(text) for text in list(tree._by_text)]
        for name in handed_out:
            with pytest.raises(SealedNameError):
                name.add_pair(AVPair("extra", "1"))
            for pair in name.walk():
                with pytest.raises(SealedNameError):
                    pair.add_child(AVPair("extra", "1"))


NameTreeMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestNameTreeMachine = NameTreeMachine.TestCase
