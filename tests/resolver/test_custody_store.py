"""CustodyStore: deterministic FIFO-within-priority eviction, TTL
expiry and release; and the custodian's restore after a crash."""

from dataclasses import replace

import pytest

from repro.chaos.scenario import fast_chaos_config
from repro.experiments import InsDomain
from repro.message import InsMessage
from repro.naming import NameSpecifier
from repro.resolver.custody import (
    PRIORITY_KNOWN_NAME,
    PRIORITY_UNKNOWN_NAME,
    CustodyStore,
)

from ..conftest import parse


def name(index):
    return NameSpecifier.parse(f"[service=custody[id={index}]]")


def raw(index):
    return InsMessage(destination=name(index), data=f"p{index}".encode()).encode()


def accept(store, index, now=0.0, ttl=10.0, priority=PRIORITY_KNOWN_NAME):
    return store.accept(
        raw(index), name(index), "default", now + ttl, priority, "no-route", None
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


class TestEvictionOrder:
    def test_fifo_within_priority(self):
        """Same tier: the oldest admission is evicted first."""
        store = CustodyStore(2)
        first, _ = accept(store, 1)
        second, _ = accept(store, 2)
        third, evicted = accept(store, 3)
        assert [e.sequence for e in evicted] == [first.sequence]
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
        arrival at the door."""
        store = CustodyStore(1)
        accept(store, 1, priority=PRIORITY_KNOWN_NAME)
        entry, evicted = accept(store, 2, priority=PRIORITY_UNKNOWN_NAME)
        assert entry is None
        assert evicted == []
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
        assert [e.sequence for e in store.entries()] == [late.sequence]

    def test_release_removes_once(self):
        store = CustodyStore(4)
        entry, _ = accept(store, 1)
        assert store.release(entry) is True
        assert store.release(entry) is False
        assert len(store) == 0


class TestRestore:
    def test_a_payload_that_lapsed_while_down_is_an_expired_drop(self):
        """A restart puts back what the crashed custodian held; the
        payload whose deadline passed while the resolver was down is a
        ``custody-expired`` drop instead, and the other keeps its own
        deadline."""
        config = replace(fast_chaos_config(), enable_custody=True, custody_ttl=2.0)
        domain = InsDomain(
            seed=11, config=config, dsr_registration_lifetime=3.0,
            dsr_sweep_interval=0.5,
        )
        inr = domain.add_inr()
        client = domain.add_client(resolver=inr)
        domain.run(2.0)
        client.send_anycast(parse("[service=first]"), b"lapses")
        domain.run(1.5)
        client.send_anycast(parse("[service=second]"), b"survives")
        domain.run(0.1)
        first, second = inr.custody.entries()

        domain.crash_inr(inr)
        domain.run(1.0)
        assert first.deadline <= domain.now < second.deadline
        domain.restart_inr(inr)
        (held,) = inr.custody.entries()
        assert held.destination == second.destination
        assert held.deadline == second.deadline
        assert inr.stats.custody_accepted == 2
        assert inr.stats.drops_custody_expired == 1
        assert inr.stats.drops_by_cause() == {"custody-expired": 1}
        stats = inr.stats
        assert stats.custody_accepted == (
            stats.custody_released + stats.drops_custody_expired
            + stats.drops_custody_evicted + len(inr.custody)
        )
