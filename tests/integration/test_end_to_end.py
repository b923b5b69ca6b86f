"""Whole-system integration tests across all layers."""

import pytest

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.resolver import InrConfig

from ..conftest import child, parse


class TestFullDomain:
    """A domain with several INRs and mixed applications."""

    @pytest.fixture
    def world(self):
        domain = InsDomain(seed=200)
        inrs = [domain.add_inr() for _ in range(4)]
        services = {}
        for index, inr in enumerate(inrs):
            service = domain.add_service(
                f"[service=sensor[entity=node][id=s{index}]]"
                f"[building=ne43[floor={index % 2}]]",
                resolver=inr, metric=float(index),
            )
            services[f"s{index}"] = service
        domain.run(3.0)
        return domain, inrs, services

    def test_every_inr_knows_every_name(self, world):
        domain, inrs, services = world
        for inr in inrs:
            assert inr.name_count() == 4

    def test_anycast_finds_global_minimum_from_any_inr(self, world):
        domain, inrs, services = world
        received = []
        for sid, service in services.items():
            service.on_message(lambda m, s, sid=sid: received.append(sid))
        for inr in inrs:
            client = domain.add_client(resolver=inr)
            client.send_anycast(parse("[service=sensor]"), b"x")
            domain.run(1.0)
        assert received == ["s0"] * 4  # metric 0 is the global best

    def test_multicast_covers_the_whole_group_from_any_inr(self, world):
        domain, inrs, services = world
        received = []
        for sid, service in services.items():
            service.on_message(lambda m, s, sid=sid: received.append(sid))
        client = domain.add_client(resolver=inrs[-1])
        client.send_multicast(parse("[building=ne43]"), b"all")
        domain.run(1.0)
        assert sorted(received) == ["s0", "s1", "s2", "s3"]

    def test_hierarchical_narrowing(self, world):
        domain, inrs, services = world
        client = domain.add_client(resolver=inrs[0])
        reply = client.discover(parse("[building=ne43[floor=1]]"))
        domain.run(1.0)
        found = {child(name.root("service"), "id").value
                 for name, _ in reply.value}
        assert found == {"s1", "s3"}

    def test_resolution_consistent_across_resolvers(self, world):
        domain, inrs, services = world
        replies = []
        for inr in inrs:
            client = domain.add_client(resolver=inr)
            replies.append(client.resolve_early(parse("[service=sensor]")))
        domain.run(1.0)
        endpoint_sets = [
            {str(e) for e, _ in reply.value} for reply in replies
        ]
        assert all(s == endpoint_sets[0] for s in endpoint_sets)
        assert len(endpoint_sets[0]) == 4


class TestDynamicWorld:
    def test_churn(self):
        """Services arriving and leaving; the system converges to the
        live set everywhere."""
        domain = InsDomain(
            seed=201, config=InrConfig(refresh_interval=2.0, record_lifetime=6.0)
        )
        a = domain.add_inr()
        b = domain.add_inr()
        stable = domain.add_service("[service=churn[id=stable]]", resolver=a,
                                    refresh_interval=2.0, lifetime=6.0)
        doomed = [
            domain.add_service(f"[service=churn[id=doomed{i}]]", resolver=b,
                               refresh_interval=2.0, lifetime=6.0)
            for i in range(3)
        ]
        domain.run(3.0)
        assert a.name_count() == 4
        for service in doomed:
            service.stop()
        late = domain.add_service("[service=churn[id=late]]", resolver=b,
                                  refresh_interval=2.0, lifetime=6.0)
        domain.run(20.0)
        for inr in (a, b):
            names = {child(name.root("service"), "id").value
                     for name, _ in inr.trees["default"].names()}
            assert names == {"stable", "late"}

    def test_late_binding_vs_early_binding_under_change(self):
        """The paper's core claim: late binding keeps working across a
        location change that invalidates an early-bound address."""
        domain = InsDomain(
            seed=202, config=InrConfig(refresh_interval=2.0, record_lifetime=6.0)
        )
        inr = domain.add_inr()
        service = domain.add_service("[service=mv[id=1]]", resolver=inr,
                                     refresh_interval=2.0, lifetime=6.0)
        inbox = []
        service.on_message(lambda m, s: inbox.append(m.data))
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        early = client.resolve_early(parse("[service=mv]"))
        domain.run(0.5)
        [(old_endpoint, _)] = early.value

        from repro.client import MobilityManager

        MobilityManager(service.node).migrate("moved-away")
        domain.run(1.0)
        # Early binding's cached address is now dead...
        client.send(old_endpoint.host, old_endpoint.port, b"to-old-address")
        # ...but intentional anycast still reaches the service.
        client.send_anycast(parse("[service=mv]"), b"via-late-binding")
        domain.run(1.0)
        assert inbox == [b"via-late-binding"]
        assert domain.network.undeliverable >= 1


class TestScaleSmoke:
    def test_hundred_services_three_inrs(self):
        domain = InsDomain(seed=203)
        inrs = [domain.add_inr() for _ in range(3)]
        for i in range(100):
            domain.add_service(
                f"[service=fleet[entity=node][id=n{i:03d}]][rack=r{i % 10}]",
                resolver=inrs[i % 3], metric=float(i),
            )
        domain.run(5.0)
        for inr in inrs:
            assert inr.name_count() == 100
        client = domain.add_client(resolver=inrs[0])
        reply = client.discover(parse("[rack=r7]"))
        domain.run(1.0)
        assert len(reply.value) == 10
