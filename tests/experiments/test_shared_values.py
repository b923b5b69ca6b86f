"""A built domain holds each equal value once where it repeats.

Every resolver holds a record per name, and most of what a record
holds is equal to what its neighbors hold: the route to one of a few
next hops at one of a few path metrics, the deadline of the update
batch that refreshed it. A record's ``Route`` comes from its tree's
route table (one object per distinct value, ``LOCAL_ROUTE`` for a local
record), and the records one update batch refreshes share one deadline.
A service bound to a fixed resolver never opens an INR-ping round, and
so holds no ping tables.
"""

from collections import defaultdict

from repro.experiments import InsDomain
from repro.nametree import LOCAL_ROUTE, AnnouncerID, Endpoint
from repro.resolver import InrConfig
from repro.resolver.protocol import NameUpdate, UpdateBatch

from ..conftest import parse


def _built_domain():
    domain = InsDomain(seed=11, config=InrConfig(refresh_interval=1.0, record_lifetime=3.0))
    inrs = [domain.add_inr(), domain.add_inr(), domain.add_inr()]
    for index in range(18):
        domain.add_service(
            f"[service=printer[id=p{index}]][room={index % 3}]",
            resolver=inrs[index % 3],
            refresh_interval=1.0,
            lifetime=3.0,
        )
    domain.run(2.5)  # attach, advertise, and one full refresh round
    return domain, inrs


def test_records_with_equal_routes_hold_one_route_object():
    domain, inrs = _built_domain()
    shared = 0
    for inr in inrs:
        tree = inr.trees["default"]
        records = list(tree.records())
        assert len(records) == 18
        by_value = defaultdict(set)
        for record in records:
            by_value[record.route].add(id(record.route))
            if record.route.next_hop is None:
                assert record.route is LOCAL_ROUTE
        assert all(len(ids) == 1 for ids in by_value.values()), dict(by_value)
        assert len(by_value) < len(records)
        shared += len(records) - len(by_value)
    assert shared >= 3 * (18 - 3)


def test_a_route_change_in_refresh_stores_the_shared_object():
    domain, inrs = _built_domain()
    tree = inrs[0].trees["default"]
    moved = [record for record in tree.records() if record.route.next_hop is not None][:2]
    assert len(moved) == 2
    for record in moved:
        changed = tree.refresh(
            record, record.advertised_name, record.endpoints, record.anycast_metric,
            "inr-elsewhere", 9.5, domain.now + 3.0,
        )
        assert changed is True
    assert moved[0].route == ("inr-elsewhere", 9.5)
    assert moved[0].route is moved[1].route is tree.route("inr-elsewhere", 9.5)
    # Back to local: the one LOCAL_ROUTE.
    tree.refresh(
        moved[0], moved[0].advertised_name, moved[0].endpoints, moved[0].anycast_metric,
        None, 0.0, domain.now + 3.0,
    )
    assert moved[0].route is LOCAL_ROUTE


def test_a_service_bound_to_a_fixed_resolver_holds_no_ping_tables():
    domain, inrs = _built_domain()
    for service in domain.services:
        assert service.attached.done
        assert service._ping_rtts is None and service._ping_sent is None
    # A client that finds its resolver through the DSR opens a round.
    client = domain.add_client()
    domain.run(2.0)
    assert client.attached.done
    assert client._ping_rtts and client._ping_sent == {}


def _update(index: int, lifetime: float) -> NameUpdate:
    announcer = AnnouncerID.generate(f"far-{index}", startup_time=1.0)
    return NameUpdate(
        name=parse(f"[service=scanner[id=s{index}]]"),
        announcer=announcer,
        endpoints=(Endpoint(host=f"far-{index}", port=1),),
        anycast_metric=0.0,
        route_metric=0.25,
        lifetime=lifetime,
        vspace="default",
    )


def test_the_records_one_batch_refreshes_share_one_deadline():
    domain, inrs = _built_domain()
    receiver, sender = inrs[0], inrs[1]
    updates = [_update(index, 3.0 if index % 3 else 7.0) for index in range(9)]
    receiver.discovery._handle_update_batch(
        UpdateBatch(sender=sender.address, updates=updates), sender.address
    )
    tree = receiver.trees["default"]
    deadlines = defaultdict(set)
    for update in updates:
        record = tree.record_for(update.announcer)
        assert record.expires_at == domain.now + update.lifetime
        deadlines[update.lifetime].add(id(record.expires_at))
    # One float per distinct lifetime, whatever the order of the batch.
    assert {lifetime: len(ids) for lifetime, ids in deadlines.items()} == {3.0: 1, 7.0: 1}
