"""Tests for overlay self-configuration and relaxation (Section 2.4)."""

import pytest

from repro.experiments import InsDomain
from repro.xp.experiments.fig14 import build_chain_domain
from repro.resolver import InrConfig, inr as inr_module


def overlay_edges(domain):
    edges = set()
    for inr in domain.inrs:
        for neighbor in inr.neighbors:
            edges.add(frozenset((inr.address, neighbor.address)))
    return edges


def is_tree(domain):
    active = [inr for inr in domain.inrs if inr.active and not inr._terminated]
    edges = overlay_edges(domain)
    if len(edges) != len(active) - 1:
        return False
    parent = {inr.address: inr.address for inr in active}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        x, y = tuple(edge)
        parent[find(x)] = find(y)
    return len({find(inr.address) for inr in active}) == 1


class TestSelfConfiguration:
    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_joins_always_yield_a_tree(self, count):
        domain = InsDomain(seed=count)
        for _ in range(count):
            domain.add_inr()
        assert is_tree(domain)

    def test_join_choice_respects_latency(self):
        """INR-pings drive peering: the joiner picks the closest active."""
        domain = build_chain_domain(5)
        for index, inr in enumerate(domain.inrs[1:], start=1):
            assert inr.neighbors.parent.address == f"chain-{index}"

    def test_neighbor_relationship_is_mutual(self):
        domain = InsDomain(seed=2)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        assert "inr-b" in a.neighbors
        assert "inr-a" in b.neighbors

    def test_pings_measure_rtt(self):
        domain = InsDomain(seed=3)
        a = domain.add_inr(address="inr-a")
        domain.network.configure_link("inr-a", "inr-b", latency=0.015)
        b = domain.add_inr(address="inr-b")
        measured = b.neighbors.rtt_to("inr-a")
        # 2 x 15 ms of latency plus processing; generously bounded.
        assert 0.03 <= measured <= 0.05


class TestRelaxation:
    def test_parent_switch_after_link_degradation(self, monkeypatch):
        monkeypatch.setattr(inr_module, "RELAXATION_INTERVAL", 5.0)
        config = InrConfig(enable_relaxation=True, refresh_interval=50.0)
        domain = InsDomain(seed=7, config=config)
        a = domain.add_inr(address="inr-a")
        domain.network.configure_link("inr-a", "inr-b", latency=0.002)
        b = domain.add_inr(address="inr-b")
        domain.network.configure_link("inr-a", "inr-c", latency=0.002)
        domain.network.configure_link("inr-b", "inr-c", latency=0.004)
        c = domain.add_inr(address="inr-c")
        assert c.neighbors.parent.address == "inr-a"
        # inr-a becomes distant; inr-b is now far cheaper.
        domain.network.configure_link("inr-a", "inr-c", latency=0.1)
        domain.network.configure_link("inr-b", "inr-c", latency=0.001)
        domain.run(120.0)
        assert c.neighbors.parent.address == "inr-b"
        assert is_tree(domain)

    def test_no_switch_without_meaningful_improvement(self, monkeypatch):
        """Hysteresis: tiny differences must not flap the tree."""
        monkeypatch.setattr(inr_module, "RELAXATION_INTERVAL", 5.0)
        config = InrConfig(enable_relaxation=True, refresh_interval=50.0)
        domain = InsDomain(seed=8, config=config)
        a = domain.add_inr(address="inr-a")
        domain.network.configure_link("inr-a", "inr-b", latency=0.002)
        b = domain.add_inr(address="inr-b")
        domain.network.configure_link("inr-a", "inr-c", latency=0.0020)
        domain.network.configure_link("inr-b", "inr-c", latency=0.0019)
        c = domain.add_inr(address="inr-c")
        parent_before = c.neighbors.parent.address
        domain.run(120.0)
        assert c.neighbors.parent.address == parent_before

    def test_relaxation_only_probes_earlier_inrs(self, monkeypatch):
        """Acyclicity: a node never adopts a later-ordered parent, so
        the overlay remains a tree through arbitrary relaxation."""
        monkeypatch.setattr(inr_module, "RELAXATION_INTERVAL", 3.0)
        config = InrConfig(enable_relaxation=True, refresh_interval=50.0)
        domain = InsDomain(seed=9, config=config)
        for _ in range(6):
            domain.add_inr()
        domain.run(200.0)
        assert is_tree(domain)
        order = {inr.address: index for index, inr in enumerate(domain.inrs)}
        for inr in domain.inrs:
            parent = inr.neighbors.parent
            if parent is not None:
                assert order[parent.address] < order[inr.address]
