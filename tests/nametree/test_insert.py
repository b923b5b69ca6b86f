"""Tests for grafting names into a name-tree and removing them."""

import pytest

from repro.naming import NameSpecifier, WildcardValueError
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree, Route

from ..conftest import make_record, node_counts, parse


class TestInsert:
    def test_insert_creates_record(self, tree):
        record = make_record()
        outcome = tree.insert(parse("[a=b]"), record)
        assert outcome.created
        assert outcome.changed
        assert outcome.record is record
        assert len(tree) == 1

    def test_insert_builds_alternating_layers(self, tree):
        tree.insert(parse("[a=b[c=d]]"), make_record())
        attributes, values = node_counts(tree)
        assert attributes == 2  # a, c
        assert values == 2  # b, d

    def test_superposition_shares_prefixes(self, tree):
        tree.insert(parse("[a=b[c=d]]"), make_record())
        tree.insert(parse("[a=b[c=e]]"), make_record("10.0.0.2"))
        attributes, values = node_counts(tree)
        assert attributes == 2  # 'a' and one shared 'c' attribute node
        assert values == 3  # b, d, e

    def test_record_attached_at_each_leaf(self, tree):
        record = make_record()
        tree.insert(parse("[a=b[x=1][y=2]][c=d]"), record)
        # leaves: x=1, y=2, c=d
        assert len(record.attachments) == 3

    def test_wildcard_advertisement_rejected(self, tree):
        with pytest.raises(WildcardValueError):
            tree.insert(parse("[a=*]"), make_record())

    def test_range_advertisement_rejected(self, tree):
        with pytest.raises(WildcardValueError):
            tree.insert(parse("[a=<9]"), make_record())

    def test_empty_advertisement_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.insert(NameSpecifier(), make_record())

    def test_insert_sets_vspace_on_record(self):
        tree = NameTree(vspace="cameras")
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        assert record.vspace == "cameras"


class TestRefresh:
    def test_same_name_same_announcer_refreshes(self, tree):
        record = make_record()
        record.expires_at = 10.0
        tree.insert(parse("[a=b]"), record)
        refresh = NameRecord(
            announcer=record.announcer,
            endpoints=list(record.endpoints),
            anycast_metric=record.anycast_metric,
            route=record.route,
            expires_at=99.0,
        )
        outcome = tree.insert(parse("[a=b]"), refresh)
        assert not outcome.created
        assert not outcome.changed  # pure refresh: no new information
        assert outcome.record is record  # canonical record kept
        assert record.expires_at == 99.0
        assert len(tree) == 1

    def test_metric_change_marks_changed(self, tree):
        record = make_record(metric=5.0)
        tree.insert(parse("[a=b]"), record)
        update = NameRecord(
            announcer=record.announcer,
            endpoints=list(record.endpoints),
            anycast_metric=1.0,
            route=record.route,
            expires_at=50.0,
        )
        outcome = tree.insert(parse("[a=b]"), update)
        assert not outcome.created
        assert outcome.changed
        assert record.anycast_metric == 1.0

    def test_endpoint_change_marks_changed(self, tree):
        record = make_record(host="old-host")
        tree.insert(parse("[a=b]"), record)
        update = NameRecord(
            announcer=record.announcer,
            endpoints=[Endpoint(host="new-host", port=9)],
            anycast_metric=record.anycast_metric,
            route=record.route,
            expires_at=50.0,
        )
        outcome = tree.insert(parse("[a=b]"), update)
        assert outcome.changed
        assert record.endpoints[0].host == "new-host"

    def test_name_change_regrafts(self, tree):
        """Service mobility: same announcer, new name (Section 3.2)."""
        record = make_record()
        tree.insert(parse("[service=camera][room=510]"), record)
        moved = NameRecord(
            announcer=record.announcer,
            endpoints=list(record.endpoints),
            expires_at=50.0,
        )
        outcome = tree.insert(parse("[service=camera][room=520]"), moved)
        assert outcome.changed
        assert len(tree) == 1
        assert not tree.lookup(parse("[room=510]"))
        assert tree.lookup(parse("[room=520]")) == {moved}


class TestRemove:
    def test_remove_detaches_record(self, tree):
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        assert tree.remove(record)
        assert len(tree) == 0
        assert not tree.lookup(parse("[a=b]"))

    def test_remove_prunes_dead_branches(self, tree):
        record = make_record()
        tree.insert(parse("[a=b[c=d]]"), record)
        tree.remove(record)
        assert node_counts(tree) == (0, 0)

    def test_remove_keeps_shared_branches(self, tree):
        first = make_record("h1")
        second = make_record("h2")
        tree.insert(parse("[a=b[c=d]]"), first)
        tree.insert(parse("[a=b[c=e]]"), second)
        tree.remove(first)
        assert node_counts(tree) == (2, 2)  # a,b and c,e survive
        assert tree.lookup(parse("[a=b[c=e]]")) == {second}

    def test_remove_unknown_record_returns_false(self, tree):
        assert not tree.remove(make_record())

    def test_remove_announcer(self, tree):
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        assert tree.remove_announcer(record.announcer) is record
        assert tree.remove_announcer(record.announcer) is None

    def test_contains_and_record_for(self, tree):
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        assert tree.record_for(record.announcer) is record
        assert tree.record_for(make_record().announcer) is None
