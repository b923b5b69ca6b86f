"""CustodyStore: deterministic FIFO-within-priority eviction, TTL
expiry, release accounting, and the snapshot/adopt transfer pattern."""

import pytest

from repro.dtn import (
    PRIORITY_KNOWN_NAME,
    PRIORITY_UNKNOWN_NAME,
    CustodyStore,
)
from repro.message import InsMessage
from repro.naming import NameSpecifier


def name(index):
    return NameSpecifier.parse(f"[service=custody[id={index}]]")


def raw(index):
    return InsMessage(destination=name(index), data=f"p{index}".encode()).encode()


def accept(store, index, now=0.0, ttl=10.0, priority=PRIORITY_KNOWN_NAME, **kw):
    return store.accept(
        raw(index), name(index), "default", now, ttl=ttl, priority=priority, **kw
    )


class TestAdmission:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            CustodyStore(0)

    def test_accept_under_capacity(self):
        store = CustodyStore(4)
        entry, evicted = accept(store, 1)
        assert entry is not None
        assert evicted == []
        assert entry.sequence == 1
        assert entry.deadline == 10.0
        assert len(store) == 1
        assert store.counts.accepted == 1

    def test_explicit_deadline_overrides_ttl(self):
        """A handoff must not reset the payload's custody clock."""
        store = CustodyStore(4)
        entry, _ = accept(store, 1, now=5.0, ttl=10.0, deadline=7.5)
        assert entry.deadline == 7.5


class TestEvictionOrder:
    def test_fifo_within_priority(self):
        """Same tier: the oldest admission is evicted first."""
        store = CustodyStore(2)
        first, _ = accept(store, 1)
        second, _ = accept(store, 2)
        third, evicted = accept(store, 3)
        assert [e.sequence for e in evicted] == [first.sequence]
        assert store.counts.evicted == 1
        held = [e.sequence for e in store.entries()]
        assert held == [second.sequence, third.sequence]

    def test_lowest_value_tier_evicted_first(self):
        """An unknown-name payload goes before any known-name one,
        regardless of admission order."""
        store = CustodyStore(2)
        known, _ = accept(store, 1, priority=PRIORITY_KNOWN_NAME)
        unknown, _ = accept(store, 2, priority=PRIORITY_UNKNOWN_NAME)
        _, evicted = accept(store, 3, priority=PRIORITY_KNOWN_NAME)
        assert [e.sequence for e in evicted] == [unknown.sequence]
        assert known.sequence in [e.sequence for e in store.entries()]

    def test_arrival_refused_when_store_outranks_it(self):
        """A full store of known-name payloads refuses an unknown-name
        arrival at the door; the refusal still counts as an eviction."""
        store = CustodyStore(1)
        accept(store, 1, priority=PRIORITY_KNOWN_NAME)
        entry, evicted = accept(store, 2, priority=PRIORITY_UNKNOWN_NAME)
        assert entry is None
        assert evicted == []
        assert store.counts.evicted == 1
        assert len(store) == 1

    def test_equal_priority_arrival_is_admitted(self):
        """A tie goes to the newcomer (FIFO: the oldest stored entry of
        the tier is the victim), so fresh payloads keep flowing."""
        store = CustodyStore(1)
        old, _ = accept(store, 1, priority=PRIORITY_UNKNOWN_NAME)
        entry, evicted = accept(store, 2, priority=PRIORITY_UNKNOWN_NAME)
        assert entry is not None
        assert [e.sequence for e in evicted] == [old.sequence]

    def test_eviction_order_is_deterministic(self):
        """Two stores fed the identical admission sequence make the
        identical eviction decisions — the same-seed reproducibility
        the chaos fingerprints rely on."""
        def run():
            store = CustodyStore(3)
            fates = []
            for index in range(10):
                priority = (
                    PRIORITY_UNKNOWN_NAME
                    if index % 3 == 0
                    else PRIORITY_KNOWN_NAME
                )
                entry, evicted = accept(
                    store, index, now=float(index), priority=priority
                )
                fates.append(
                    (
                        entry.sequence if entry else None,
                        tuple(e.sequence for e in evicted),
                    )
                )
            return fates, tuple(e.sequence for e in store.entries())

        assert run() == run()


class TestLifecycle:
    def test_expire_removes_overdue_entries(self):
        store = CustodyStore(4)
        early, _ = accept(store, 1, now=0.0, ttl=5.0)
        late, _ = accept(store, 2, now=0.0, ttl=20.0)
        lapsed = store.expire(10.0)
        assert [e.sequence for e in lapsed] == [early.sequence]
        assert store.counts.expired == 1
        assert [e.sequence for e in store.entries()] == [late.sequence]

    def test_release_removes_once(self):
        store = CustodyStore(4)
        entry, _ = accept(store, 1)
        assert store.release(entry) is True
        assert store.release(entry) is False
        assert store.counts.released == 1
        assert len(store) == 0

    def test_entries_filters_by_vspace(self):
        store = CustodyStore(4)
        store.accept(raw(1), name(1), "alpha", 0.0, ttl=5.0, priority=0)
        store.accept(raw(2), name(2), "beta", 0.0, ttl=5.0, priority=0)
        assert [e.vspace for e in store.entries("alpha")] == ["alpha"]

    def test_drain_empties_the_store(self):
        store = CustodyStore(4)
        accept(store, 1)
        accept(store, 2)
        drained = store.drain()
        assert len(drained) == 2
        assert len(store) == 0

class TestSnapshotAdopt:
    def test_adopt_preserves_deadlines(self):
        store = CustodyStore(4)
        accept(store, 1, now=0.0, ttl=10.0)
        successor = CustodyStore(4)
        lapsed, evicted = successor.adopt(store.snapshot(), now=4.0)
        assert lapsed == [] and evicted == []
        (entry,) = successor.entries()
        assert entry.deadline == 10.0
        assert successor.counts.adopted == 1

    def test_adopt_drops_already_lapsed_payloads(self):
        store = CustodyStore(4)
        accept(store, 1, now=0.0, ttl=5.0)
        successor = CustodyStore(4)
        lapsed, _ = successor.adopt(store.snapshot(), now=6.0)
        assert len(lapsed) == 1
        assert lapsed[0].destination == name(1)
        assert successor.counts.expired == 1
        assert len(successor) == 0

    def test_adopt_respects_capacity(self):
        """Adoption re-runs normal admission: a small successor evicts
        (or refuses) exactly as live accepts would, and every refused
        payload is surfaced for drop attribution."""
        store = CustodyStore(4)
        for index in range(3):
            accept(store, index, now=0.0, ttl=10.0)
        successor = CustodyStore(2)
        lapsed, evicted = successor.adopt(store.snapshot(), now=1.0)
        assert lapsed == []
        assert len(evicted) == 1
        assert len(successor) == 2
