"""Tests for soft-state expiry of name-records (Section 2.2)."""

import math

from repro.nametree import DEFAULT_LIFETIME, NameTree

from ..conftest import make_record, parse


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
        assert tree.node_counts() == (0, 0)

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


class TestRecordBasics:
    def test_is_expired_boundary(self):
        record = make_record(expires_at=10.0)
        assert not record.is_expired(9.999)
        assert record.is_expired(10.0)

    def test_records_hash_by_identity_semantics(self):
        """Two records never compare equal unless identical objects —
        a set of records is a set of distinct announcements."""
        a = make_record("h")
        b = make_record("h")
        assert a != b
        assert len({a, b}) == 2
