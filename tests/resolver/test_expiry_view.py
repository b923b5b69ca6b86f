"""One expiry view across the resolver (Section 2.2's soft state).

A name-record is gone at its deadline for every reader and writer of a
resolver's name-trees — late and early binding, discovery, the periodic
table, the Bellman-Ford acceptance — whether or not the soft-state sweep
has collected it yet. The sweep only reclaims memory, so how long a dead
name lingers must not depend on how often it runs.
"""

import pytest

from repro.experiments import InsDomain
from repro.nametree import AnnouncerID
from repro.resolver import InrConfig
from repro.resolver.discovery import NameDiscovery
from repro.resolver.ports import INR_PORT
from repro.resolver.protocol import PeerRequest

from ..conftest import parse
from .test_inr_discovery import send_update

REFRESH = 1.0
LIFETIME = 3.0

#: A sweep period no test below outlives: a dead record stays held.
NO_SWEEP = 1000.0


def _forget_time(sweep: float, listed: list) -> float:
    """Seconds from a service's stop until the INR one hop away stops
    answering its name, by lookup and by early binding (polled every
    0.05 s). Every record a periodic table lists goes into ``listed``
    with the time it was listed at."""
    domain = InsDomain(
        seed=4,
        config=InrConfig(
            refresh_interval=REFRESH, record_lifetime=LIFETIME,
            expiry_sweep_interval=sweep,
        ),
    )
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    service = domain.add_service("[service=x[id=1]]", resolver=a,
                                 refresh_interval=REFRESH, lifetime=LIFETIME)
    domain.run(5.0)
    name = parse("[service=x]")
    tree = b.trees["default"]
    assert tree.lookup(name)
    service.stop()
    stopped = domain.now
    while tree.lookup(name) or b.dataplane._bindings(tree, name):
        domain.run(0.05)
        assert domain.now - stopped < 30.0, "the dead name never left inr-b"
    return domain.now - stopped


def test_a_dead_name_leaves_at_the_same_pace_whatever_the_sweep(monkeypatch):
    listed = []
    table = NameDiscovery.table

    def recording_table(self, tree):
        records, updates = table(self, tree)
        listed.extend((self.inr.now, record.expires_at) for record in records)
        return records, updates

    monkeypatch.setattr(NameDiscovery, "table", recording_table)
    fast, slow = _forget_time(0.25, listed), _forget_time(5.0, listed)
    # The origin forgets within one lifetime of the stop; its neighbour
    # one lifetime after the last update it heard, sent at most one
    # refresh before that.
    assert slow < 2 * LIFETIME + REFRESH, (fast, slow)
    assert abs(slow - fast) <= REFRESH, (fast, slow)
    assert listed and all(now < expires_at for now, expires_at in listed)


@pytest.fixture
def held_pair():
    """Two peered INRs whose sweep never runs during a test."""
    domain = InsDomain(
        seed=3,
        config=InrConfig(
            refresh_interval=REFRESH, record_lifetime=LIFETIME,
            expiry_sweep_interval=NO_SWEEP,
        ),
    )
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    return domain, a, b


def test_a_dead_route_does_not_block_a_worse_one_from_another_neighbor(held_pair):
    domain, a, b = held_pair
    tree = a.trees["default"]
    announcer = AnnouncerID.generate("origin")
    send_update(domain, a, b.address, "[service=far]", announcer,
                route_metric=0.5, lifetime=2.0)
    assert tree.record_for(announcer).route.next_hop == b.address
    domain.network.add_node("inr-c")
    domain.network.send("inr-c", a.address, INR_PORT,
                        PeerRequest("inr-c", measured_rtt=0.001), 28)
    domain.run(2.0)
    assert len(tree) == 1  # past its deadline, not swept
    triggered = a.stats.triggered_updates_sent
    send_update(domain, a, "inr-c", "[service=far]", announcer,
                route_metric=50.0)
    record = tree.record_for(announcer)
    assert record is not None and record.route.next_hop == "inr-c"
    assert a.stats.triggered_updates_sent > triggered


def test_a_dead_local_record_does_not_block_the_remote_route(held_pair):
    domain, a, b = held_pair
    service = domain.add_service("[service=x[id=1]]", resolver=a,
                                 refresh_interval=REFRESH, lifetime=LIFETIME)
    domain.run(2.0)
    tree = a.trees["default"]
    assert tree.record_for(service.announcer).route.is_local
    # The service moves to inr-b: inr-a hears it no more, and keeps
    # refusing inr-b's route only while its own record is alive.
    service.resolver = b.address
    service.advertise(triggered=True)
    domain.run(LIFETIME + 2 * REFRESH)
    record = tree.record_for(service.announcer)
    assert record is not None and record.route.next_hop == b.address
    assert a.dataplane._bindings(tree, parse("[service=x]")) == [
        (endpoint, 0.0) for endpoint in record.endpoints
    ]
