"""Tests for INR lifecycle: join, peering, failure, termination."""

import pytest

from repro.experiments import InsDomain
from repro.obs import TraceContext
from repro.resolver import DataPacket, InrConfig

from ..conftest import forge_packet, parse


class TestJoin:
    def test_first_inr_has_no_peers(self):
        domain = InsDomain(seed=30)
        first = domain.add_inr()
        assert first.active
        assert len(first.neighbors) == 0
        assert domain.dsr.active_inrs == (first.address,)

    def test_joiner_peers_with_minimum_rtt_active(self):
        domain = InsDomain(seed=30)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        # Make inr-b much closer to the newcomer than inr-a is.
        domain.network.configure_link("inr-b", "inr-c", latency=0.001)
        domain.network.configure_link("inr-a", "inr-c", latency=0.05)
        c = domain.add_inr(address="inr-c")
        assert c.neighbors.parent.address == "inr-b"
        assert "inr-c" in b.neighbors

    def test_n_inrs_form_a_tree(self):
        """n nodes, n-1 peering edges, all connected (Section 2.4)."""
        domain = InsDomain(seed=31)
        for _ in range(6):
            domain.add_inr()
        edges = set()
        for inr in domain.inrs:
            for neighbor in inr.neighbors:
                edges.add(frozenset((inr.address, neighbor.address)))
        assert len(edges) == len(domain.inrs) - 1
        # connectivity by union-find over the edges
        parent = {inr.address: inr.address for inr in domain.inrs}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in sorted(edges, key=sorted):
            x, y = sorted(edge)
            parent[find(x)] = find(y)
        roots = {find(inr.address) for inr in domain.inrs}
        assert len(roots) == 1

    def test_new_peer_receives_full_table(self):
        domain = InsDomain(seed=32)
        a = domain.add_inr(address="inr-a")
        domain.add_service("[service=old[id=1]]", resolver=a)
        domain.run(1.0)
        b = domain.add_inr(address="inr-b")
        domain.run(1.0)
        assert b.name_count() == 1


class TestFailureRecovery:
    def test_goodbye_triggers_immediate_rejoin(self):
        domain = InsDomain(seed=33)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        c = domain.add_inr(address="inr-c")
        # Whoever is peered with a gets a goodbye when a terminates.
        a.terminate()
        domain.run(5.0)
        assert domain.dsr.active_inrs == ("inr-b", "inr-c")
        edges = {
            frozenset((inr.address, n.address))
            for inr in (b, c)
            for n in inr.neighbors
        }
        assert edges == {frozenset(("inr-b", "inr-c"))}

    def test_silent_crash_heals_via_timeouts(self):
        domain = InsDomain(seed=34)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        c = domain.add_inr(address="inr-c")
        a.crash()
        domain.run(120.0)  # > neighbor timeout and DSR lifetime
        assert "inr-a" not in domain.dsr.active_inrs
        assert "inr-a" not in b.neighbors
        assert "inr-a" not in c.neighbors
        # the survivors re-formed a connected overlay
        assert ("inr-c" in b.neighbors) or ("inr-b" in c.neighbors)

    def test_routes_via_dead_neighbor_flushed(self):
        domain = InsDomain(seed=35)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        service = domain.add_service("[service=x[id=1]]", resolver=b)
        domain.run(1.0)
        assert a.name_count() == 1
        service.stop()  # stop refreshing before the crash
        b.crash()
        domain.run(120.0)
        assert a.name_count() == 0

    def test_names_survive_inr_failure_when_service_lives(self):
        """A service whose INR died keeps advertising; after re-attach
        its name reappears through the surviving resolver."""
        domain = InsDomain(
            seed=36, config=InrConfig(refresh_interval=3.0, record_lifetime=9.0)
        )
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        service = domain.add_service("[service=x[id=1]]", resolver=b,
                                     refresh_interval=3.0, lifetime=9.0)
        client = domain.add_client(resolver=a)
        domain.run(1.0)
        b.crash()
        service.reattach()
        domain.run(30.0)
        reply = client.resolve_early(parse("[service=x]"))
        domain.run(1.0)
        assert len(reply.value) == 1


class TestTermination:
    def test_terminate_deregisters_and_unbinds(self):
        domain = InsDomain(seed=37)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        b.terminate()
        domain.run(1.0)
        assert domain.dsr.active_inrs == ("inr-a",)
        assert domain.network.node("inr-b").processes == ()

    def test_terminate_is_idempotent(self):
        domain = InsDomain(seed=38)
        a = domain.add_inr()
        a.terminate()
        a.terminate()

    @pytest.mark.parametrize("destination", ["[service=x]", "[["])
    def test_a_packet_reaching_a_terminated_inr_is_attributed_to_its_trace(
        self, destination
    ):
        """The drop span needs the 24 bytes of context, not the names: a
        traced frame whose name section does not even parse is still a
        ``drop:terminated`` under its own trace id."""
        domain = InsDomain(seed=39)
        inr = domain.add_inr(address="inr-a")
        collector = domain.observe()
        inr.terminate()
        context = TraceContext(trace_id=91, span_id=4)
        raw = forge_packet("", destination, b"late", trace=context)
        inr.handle_message(DataPacket(raw=raw), "stranger")
        assert inr.stats.drops_terminated == 1
        (span,) = [s for s in collector.tracer.spans if s.name == "inr.hop"]
        assert span.status == "drop:terminated"
        assert (span.trace_id, span.parent_span_id) == (91, 4)
