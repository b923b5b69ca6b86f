"""Network-partition tests: INS heals when connectivity returns."""

import pytest

from repro.experiments import DSR_HOST, InsDomain
from repro.resolver import InrConfig

from ..conftest import child, parse


@pytest.fixture
def split_world():
    """Two INRs with a service on each, then a partition between the
    INR sides (the DSR stays reachable from side A only)."""
    domain = InsDomain(
        seed=400, config=InrConfig(refresh_interval=2.0, record_lifetime=6.0)
    )
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    svc_a = domain.add_service("[service=side[id=a]]", address="host-a",
                               resolver=a, refresh_interval=2.0, lifetime=6.0)
    svc_b = domain.add_service("[service=side[id=b]]", address="host-b",
                               resolver=b, refresh_interval=2.0, lifetime=6.0)
    domain.run(2.0)
    return domain, a, b, svc_a, svc_b


class TestPartitionBehaviour:
    def test_remote_names_expire_during_partition(self, split_world):
        domain, a, b, svc_a, svc_b = split_world
        assert a.name_count() == 2
        side_a = ("inr-a", "host-a")
        side_b = ("inr-b", "host-b")
        domain.network.partition(side_a, side_b)
        domain.run(20.0)
        # Each side keeps its own service, loses the other's.
        a_names = {child(n.root("service"), "id").value
                   for n, _ in a.trees["default"].names()}
        b_names = {child(n.root("service"), "id").value
                   for n, _ in b.trees["default"].names()}
        assert a_names == {"a"}
        assert b_names == {"b"}

    def test_local_resolution_keeps_working_during_partition(self, split_world):
        domain, a, b, svc_a, svc_b = split_world
        domain.network.partition(("inr-a", "host-a"), ("inr-b", "host-b"))
        domain.run(20.0)
        client = domain.add_client(address="client-a", resolver=a)
        inbox = []
        svc_a.on_message(lambda m, s: inbox.append(m.data))
        client.send_anycast(parse("[service=side]"), b"local-only")
        domain.run(1.0)
        assert inbox == [b"local-only"]

    def test_names_reconverge_after_heal(self, split_world):
        domain, a, b, svc_a, svc_b = split_world
        side_a = ("inr-a", "host-a", DSR_HOST)
        side_b = ("inr-b", "host-b")
        domain.network.partition(side_a, side_b)
        domain.run(60.0)  # long enough for peerings to time out too
        domain.network.heal(side_a, side_b)
        domain.run(60.0)  # rejoin + refresh rounds
        assert a.name_count() == 2
        assert b.name_count() == 2

    def test_cross_side_delivery_resumes_after_heal(self, split_world):
        domain, a, b, svc_a, svc_b = split_world
        side_a = ("inr-a", "host-a", DSR_HOST)
        side_b = ("inr-b", "host-b")
        domain.network.partition(side_a, side_b)
        domain.run(60.0)
        domain.network.heal(side_a, side_b)
        domain.run(60.0)
        client = domain.add_client(address="client-a", resolver=a)
        inbox = []
        svc_b.on_message(lambda m, s: inbox.append(m.data))
        client.send_anycast(parse("[service=side[id=b]]"), b"hello-again")
        domain.run(2.0)
        assert inbox == [b"hello-again"]


class TestLinkFlap:
    def test_link_down_counts_drops(self):
        domain = InsDomain(seed=401)
        a = domain.add_inr(address="inr-a")
        link = domain.network.link("inr-a", "client-x")
        client = domain.add_client(address="client-x", resolver=a)
        link.up = False
        client.resolve_early(parse("[service=any]"))
        domain.run(1.0)
        assert link.stats.drops >= 1
        link.up = True
        reply = client.resolve_early(parse("[service=any]"))
        domain.run(1.0)
        assert reply.done  # empty result, but the round trip worked
