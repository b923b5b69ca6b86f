"""Tests for the DNS-style baseline directory."""

import pytest

from repro.baselines import (
    DnsClient,
    DnsDirectory,
    DnsRegisteredService,
)
from repro.nametree import Endpoint
from repro.netsim import Network, Simulator


@pytest.fixture
def dns_world():
    sim = Simulator(seed=600)
    network = Network(sim)
    directory = DnsDirectory(network.add_node("dns-server"), default_ttl=30.0)
    client = DnsClient(network.add_node("client"), 7001, "dns-server")
    return sim, network, directory, client


def add_server(network, host, hostname, ttl=30.0):
    service = DnsRegisteredService(network.add_node(host), 7000, hostname,
                                   "dns-server", ttl=ttl)
    service.start()
    return service


class TestDirectory:
    def test_register_and_resolve(self, dns_world):
        sim, network, directory, client = dns_world
        add_server(network, "srv-1", "printer.example")
        sim.run_for(1.0)
        reply = client.resolve("printer.example")
        sim.run_for(1.0)
        assert reply.value.host == "srv-1"

    def test_unknown_name_resolves_to_none(self, dns_world):
        sim, network, directory, client = dns_world
        reply = client.resolve("ghost.example")
        sim.run_for(1.0)
        assert reply.done
        assert reply.value is None

    def test_round_robin_across_records(self, dns_world):
        sim, network, directory, client = dns_world
        add_server(network, "srv-1", "printer.example")
        add_server(network, "srv-2", "printer.example")
        sim.run_for(1.0)
        hosts = []
        for _ in range(4):
            client.resolve("printer.example").then(
                lambda e: hosts.append(e.host)
            )
            sim.run_for(0.5)
        assert hosts == ["srv-1", "srv-2", "srv-1", "srv-2"]

    def test_re_registration_replaces_endpoint(self, dns_world):
        sim, network, directory, client = dns_world
        service = add_server(network, "srv-1", "printer.example")
        sim.run_for(1.0)
        network.rename_node("srv-1", "srv-moved")
        service.register()
        sim.run_for(1.0)
        assert directory.records_for("printer.example") == (
            Endpoint(host="srv-moved", port=7000),
        )


class TestClientCaching:
    def test_cache_hit_avoids_server(self, dns_world):
        sim, network, directory, client = dns_world
        add_server(network, "srv-1", "printer.example")
        sim.run_for(1.0)
        client.resolve("printer.example")
        sim.run_for(1.0)
        served_before = directory.queries_served
        client.resolve("printer.example")
        sim.run_for(1.0)
        assert directory.queries_served == served_before
        assert client.cache_hits == 1

    def test_cache_serves_stale_records_until_ttl(self, dns_world):
        """The failure mode late binding avoids: a cached answer keeps
        pointing at the old address after the host moved."""
        sim, network, directory, client = dns_world
        service = add_server(network, "srv-1", "printer.example", ttl=30.0)
        sim.run_for(1.0)
        client.resolve("printer.example")
        sim.run_for(1.0)
        network.rename_node("srv-1", "srv-moved")
        service.register()  # directory is fixed immediately...
        sim.run_for(1.0)
        stale = client.resolve("printer.example")
        sim.run_for(1.0)
        assert stale.value.host == "srv-1"  # ...but the cache is not
        sim.run_for(35.0)  # TTL expires
        fresh = client.resolve("printer.example")
        sim.run_for(1.0)
        assert fresh.value.host == "srv-moved"

    def test_no_hard_state_expiry_without_deregistration(self, dns_world):
        """Unlike INS soft state, a dead server's record lives forever."""
        sim, network, directory, client = dns_world
        service = add_server(network, "srv-1", "printer.example")
        sim.run_for(1.0)
        service.stop()  # crashes; never deregisters
        sim.run_for(500.0)
        assert directory.records_for("printer.example") != ()
