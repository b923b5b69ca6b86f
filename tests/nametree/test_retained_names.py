"""``get_name`` answers from the grafted name-specifier it retained.

The retained object must be indistinguishable from the literal Figure 6
trace (``reconstruct_name``) — same structure *and* same sibling order,
since the order is what update wire bytes and discovery ordering are
made of — over any history of tree mutations, and must stop being
trusted the moment its owner mutates it.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.experiments import UniformWorkload
from repro.naming import AVPair, NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree

from ..conftest import make_record, parse


def _record(announcer: AnnouncerID, expires_at: float) -> NameRecord:
    return NameRecord(
        announcer=announcer,
        endpoints=[Endpoint(host=announcer.host, port=1)],
        expires_at=expires_at,
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

    roots = list(name.roots)
    rng.shuffle(roots)
    return NameSpecifier([rebuild(root) for root in roots])


def _assert_retained_equals_figure_6(tree: NameTree) -> None:
    for record in tree.records():
        retained = tree.get_name(record)
        traced = tree.reconstruct_name(record)
        assert retained is not traced
        assert retained.to_wire() == traced.to_wire()
        assert retained.canonical_key() == traced.canonical_key()
        assert retained.canonical_key() == record.advertised_key


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_retained_name_equals_figure_6_over_histories(seed):
    """Insert / refresh (same object, equal copy, reordered copy) /
    rename / remove / expire-with-grace / batched bursts: after every
    step, every live record's retained name is Figure 6's answer."""
    rng = random.Random(seed)
    workload = UniformWorkload(
        rng=random.Random(seed + 1),
        depth=3,
        attribute_range=3,
        value_range=3,
        attributes_per_level=2,
    )
    tree = NameTree()
    announcers = [AnnouncerID.generate(f"h{index}") for index in range(8)]
    current = {}
    now = 0.0

    def step() -> None:
        announcer = rng.choice(announcers)
        action = rng.choice(
            ["insert", "refresh", "refresh-copy", "refresh-reordered",
             "rename", "remove", "expire"]
        )
        held = current.get(announcer)
        if action == "expire":
            for record in tree.expire(now, grace=rng.choice([0.0, 5.0])):
                current.pop(record.announcer, None)
            return
        if action == "remove":
            if tree.remove_announcer(announcer) is not None:
                del current[announcer]
            return
        if held is None or action in ("insert", "rename"):
            name = workload.random_name()
        elif action == "refresh":
            name = held
        elif action == "refresh-copy":
            name = held.copy()
        else:
            name = _reordered(held, rng)
        outcome = tree.insert(name, _record(announcer, now + rng.choice([3.0, 30.0])))
        if outcome.created or held is None or name.canonical_key() != held.canonical_key():
            current[announcer] = name
        else:
            # A refresh never re-grafts: the first graft's object stays.
            assert tree.get_name(outcome.record) is held

    for _ in range(60):
        now += rng.choice([0.0, 1.0, 4.0])
        if rng.random() < 0.2:
            with tree.batch():
                for _ in range(rng.randint(1, 5)):
                    step()
        else:
            step()
        assert set(current) == {r.announcer for r in tree.records()}
        _assert_retained_equals_figure_6(tree)


def test_refresh_with_reordered_siblings_keeps_first_graft_order(tree):
    first = parse("[a=1[x=1][y=2]][b=2]")
    record = make_record("h")
    tree.insert(first, record)
    again = NameRecord(announcer=record.announcer, endpoints=list(record.endpoints))
    outcome = tree.insert(parse("[b=2][a=1[y=2][x=1]]"), again)
    assert outcome.record is record and not outcome.created
    assert tree.get_name(record) is first
    assert tree.get_name(record).to_wire() == "[a=1[x=1][y=2]][b=2]"
    assert tree.reconstruct_name(record).to_wire() == "[a=1[x=1][y=2]][b=2]"


def test_rename_retains_the_new_object_and_remove_drops_it(tree):
    record = make_record("h")
    tree.insert(parse("[a=1]"), record)
    renamed = parse("[a=2[b=3]]")
    moved = NameRecord(announcer=record.announcer, endpoints=list(record.endpoints))
    tree.insert(renamed, moved)
    assert record.advertised_name is None  # the displaced record lets go
    assert tree.get_name(moved) is renamed
    tree.remove(moved)
    assert moved.advertised_name is None and moved.advertised_key is None


class TestMutationAfterGraft:
    """The advertiser keeps a reference to the name it sent; if it edits
    that object the tree's copy of the truth is the tree itself."""

    def test_top_level_add_pair_falls_back_to_figure_6(self, tree):
        name = parse("[a=1[b=2]]")
        record = make_record("h")
        tree.insert(name, record)
        assert tree.get_name(record) is name
        name.add("c", "3")
        recovered = tree.get_name(record)
        assert recovered is not name
        assert recovered.to_wire() == "[a=1[b=2]]"
        assert recovered.canonical_key() == record.advertised_key

    def test_deep_add_child_falls_back_to_figure_6(self, tree):
        name = parse("[a=1[b=2[c=3]]][d=4]")
        record = make_record("h")
        tree.insert(name, record)
        name.root("a").child("b").child("c").add("e", "5")
        recovered = tree.get_name(record)
        assert recovered is not name
        assert recovered.to_wire() == "[a=1[b=2[c=3]]][d=4]"

    def test_recomputed_key_does_not_revive_the_retained_object(self, tree):
        name = parse("[a=1[b=2]]")
        record = make_record("h")
        tree.insert(name, record)
        name.root("a").add("z", "9")
        name.canonical_key()  # cached again — but as a different tuple
        assert tree.get_name(record).to_wire() == "[a=1[b=2]]"
        # and lookups still see what was grafted, not the edit
        assert tree.lookup(parse("[a=1[z=9]]")) == {record}  # z omitted = wild-card
        assert tree.lookup(parse("[a=1[b=3]]")) == set()

    def test_readvertising_the_mutated_object_regrafts_and_retains_it(self, tree):
        name = parse("[a=1]")
        record = make_record("h")
        tree.insert(name, record)
        name.root("a").add("b", "2")
        again = NameRecord(announcer=record.announcer, endpoints=list(record.endpoints))
        outcome = tree.insert(name, again)
        assert outcome.changed and outcome.record is again
        assert tree.get_name(again) is name
        assert tree.reconstruct_name(again).to_wire() == "[a=1[b=2]]"
