"""Tests for soft-state expiry of name-records (Section 2.2)."""

import math

from repro.nametree import DEFAULT_LIFETIME, NameRecord, NameTree

from ..conftest import make_record, node_counts, parse


class TestExpiry:
    def test_expired_records_are_removed(self, tree):
        record = make_record(expires_at=10.0)
        tree.insert(parse("[a=b]"), record)
        expired = tree.expire(now=10.0)
        assert expired == [record]
        assert len(tree) == 0

    def test_live_records_survive(self, tree):
        record = make_record(expires_at=10.0)
        tree.insert(parse("[a=b]"), record)
        assert tree.expire(now=9.999) == []
        assert len(tree) == 1

    def test_expiry_prunes_branches(self, tree):
        record = make_record(expires_at=5.0)
        tree.insert(parse("[a=b[c=d]]"), record)
        tree.expire(now=6.0)
        assert node_counts(tree) == (0, 0)

    def test_partial_expiry(self, tree):
        doomed = make_record(host="doomed", expires_at=5.0)
        survivor = make_record(host="survivor", expires_at=100.0)
        tree.insert(parse("[a=b]"), doomed)
        tree.insert(parse("[a=c]"), survivor)
        tree.expire(now=50.0)
        assert tree.lookup(parse("[a=*]")) == {survivor}

    def test_refresh_extends_life(self, tree):
        record = make_record(expires_at=5.0)
        tree.insert(parse("[a=b]"), record)
        tree.set_expiry(record, 4.0 + DEFAULT_LIFETIME)
        assert tree.expire(now=6.0) == []
        assert record.expires_at == 4.0 + DEFAULT_LIFETIME

    def test_a_deadline_moved_earlier_is_still_swept_on_time(self, tree):
        """A sweep that scanned trusts what it found until a deadline
        write says otherwise — including one that shortens a life."""
        early = make_record(host="early", expires_at=50.0)
        late = make_record(host="late", expires_at=90.0)
        tree.insert(parse("[a=b]"), early)
        tree.insert(parse("[a=c]"), late)
        assert tree.expire(now=10.0) == []        # nothing can be due before 50
        tree.set_expiry(late, 20.0)
        assert tree.expire(now=19.0) == []
        assert tree.expire(now=20.0) == [late]
        assert tree.expire(now=49.0) == []
        assert tree.expire(now=50.0) == [early]

    def test_infinite_lifetime_never_expires(self, tree):
        record = make_record(expires_at=math.inf)
        tree.insert(parse("[a=b]"), record)
        assert tree.expire(now=1e12) == []


class Clock:
    """A settable time for a tree to read its deadlines against."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestExpiryView:
    """A record past its deadline is gone for every read and write,
    whether or not ``expire`` has collected it."""

    def test_record_is_hidden_at_its_deadline(self):
        clock = Clock(9.999)
        tree = NameTree(clock=clock)
        record = make_record(expires_at=10.0)
        name = parse("[a=b]")
        tree.insert(name, record)
        assert tree.lookup(name) == {record}
        assert tree.record_for(record.announcer) is record
        assert list(tree.records()) == [record]
        assert list(tree.names()) == [(name, record)]
        clock.now = 10.0
        assert tree.lookup(name) == set()
        assert tree.lookup(parse("[a=*]")) == set()
        assert tree.record_for(record.announcer) is None
        assert list(tree.records()) == []
        assert list(tree.names()) == []
        assert len(tree) == 1          # held until the sweep reclaims it
        assert tree.expire(10.0) == [record]
        assert len(tree) == 0

    def test_view_hides_only_the_dead(self):
        clock = Clock(0.0)
        tree = NameTree(clock=clock)
        doomed = make_record(host="doomed", expires_at=5.0)
        survivor = make_record(host="survivor", expires_at=100.0)
        tree.insert(parse("[a=b]"), doomed)
        tree.insert(parse("[a=c]"), survivor)
        assert tree.lookup(parse("[a=*]")) == {doomed, survivor}
        clock.now = 50.0
        assert tree.lookup(parse("[a=*]")) == {survivor}
        assert list(tree.records()) == [survivor]

    def test_a_dead_record_is_grafted_afresh_as_news(self):
        clock = Clock(0.0)
        tree = NameTree(clock=clock)
        dead = make_record(expires_at=10.0)
        name = parse("[a=b]")
        tree.insert(name, dead)
        clock.now = 12.0
        assert tree.refresh(dead, name, (), 0.0, None, 0.0, 60.0) is None
        assert dead.expires_at == 10.0
        again = NameRecord(announcer=dead.announcer, expires_at=70.0)
        outcome = tree.insert(name, again)
        assert outcome.record is again and outcome.created and outcome.changed
        assert dead.slot is None and len(tree) == 1
        assert tree.lookup(name) == {again}

    def test_a_tree_without_a_clock_shows_everything_held(self, tree):
        record = make_record(expires_at=-1e300)
        tree.insert(parse("[a=b]"), record)
        assert tree.lookup(parse("[a=b]")) == {record}
        assert tree.record_for(record.announcer) is record


class TestRecordBasics:
    def test_records_hash_by_identity_semantics(self):
        """Two records never compare equal unless identical objects —
        a set of records is a set of distinct announcements."""
        a = make_record("h")
        b = make_record("h")
        assert a != b
        assert len({a, b}) == 2
