"""Tests for early binding, name discovery and vspace forwarding."""

import pytest

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.resolver import InrConfig

from ..conftest import parse


@pytest.fixture
def queryable():
    domain = InsDomain(seed=21)
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    domain.add_service("[service=cam[id=1]][room=510]", resolver=a, metric=3.0)
    domain.add_service("[service=cam[id=2]][room=511]", resolver=b, metric=1.0)
    client = domain.add_client(resolver=a)
    domain.run(2.0)
    return domain, a, b, client


class TestEarlyBinding:
    def test_returns_endpoints_sorted_by_metric(self, queryable):
        domain, a, b, client = queryable
        reply = client.resolve_early(parse("[service=cam]"))
        domain.run(0.5)
        bindings = reply.value
        assert len(bindings) == 2
        metrics = [metric for _, metric in bindings]
        assert metrics == sorted(metrics) == [1.0, 3.0]

    def test_endpoint_contains_port_and_transport(self, queryable):
        """Early binding returns [ip, [port, transport]] (Section 2.2)."""
        domain, a, b, client = queryable
        reply = client.resolve_early(parse("[service=cam[id=1]]"))
        domain.run(0.5)
        endpoint, _ = reply.value[0]
        assert endpoint.port > 0
        assert endpoint.transport == "udp"

    def test_no_match_returns_empty(self, queryable):
        domain, a, b, client = queryable
        reply = client.resolve_early(parse("[service=toaster]"))
        domain.run(0.5)
        assert reply.value == []


class TestDiscovery:
    def test_filter_returns_matching_names(self, queryable):
        domain, a, b, client = queryable
        reply = client.discover(parse("[service=cam]"))
        domain.run(0.5)
        wires = sorted(name.to_wire() for name, _ in reply.value)
        assert wires == [
            "[service=cam[id=1]][room=510]",
            "[service=cam[id=2]][room=511]",
        ]

    def test_empty_filter_returns_everything(self, queryable):
        domain, a, b, client = queryable
        reply = client.discover(NameSpecifier())
        domain.run(0.5)
        assert len(reply.value) == 2

    def test_wildcard_filter(self, queryable):
        domain, a, b, client = queryable
        reply = client.discover(parse("[room=*]"))
        domain.run(0.5)
        assert len(reply.value) == 2

    def test_discovery_includes_metrics(self, queryable):
        domain, a, b, client = queryable
        reply = client.discover(parse("[service=cam[id=2]]"))
        domain.run(0.5)
        [(name, metric)] = reply.value
        assert metric == 1.0


class TestForeignVspaces:
    @pytest.fixture
    def split_domain(self):
        domain = InsDomain(seed=22)
        a = domain.add_inr(address="inr-a", vspaces=("default",))
        b = domain.add_inr(address="inr-b", vspaces=("sensors",))
        domain.add_service("[service=temp[id=1]][vspace=sensors]", resolver=b)
        client = domain.add_client(resolver=a)
        domain.run(2.0)
        return domain, a, b, client

    def test_resolution_forwarded_to_owning_inr(self, split_domain):
        domain, a, b, client = split_domain
        reply = client.resolve_early(parse("[service=temp][vspace=sensors]"))
        domain.run(1.0)
        assert len(reply.value) == 1

    def test_discovery_forwarded_to_owning_inr(self, split_domain):
        domain, a, b, client = split_domain
        reply = client.discover(parse("[service=temp][vspace=sensors]"))
        domain.run(1.0)
        assert [name.to_wire() for name, _ in reply.value] == [
            "[service=temp[id=1]][vspace=sensors]"
        ]

    def test_data_packets_forwarded_and_vspace_cached(self, split_domain):
        domain, a, b, client = split_domain
        service = domain.services[0]
        inbox = []
        service.on_message(lambda m, s: inbox.append(m.data))
        queries_before = domain.dsr.queries_served
        for i in range(3):
            client.send_anycast(parse("[service=temp][vspace=sensors]"),
                                f"m{i}".encode())
            domain.run(0.5)
        assert inbox == [b"m0", b"m1", b"m2"]
        # Only the first packet needed the DSR; the rest hit the cache.
        assert domain.dsr.queries_served == queries_before + 1

    def test_unknown_vspace_drops_after_dsr_miss(self, split_domain):
        domain, a, b, client = split_domain
        dropped_before = a.stats.packets_dropped
        client.send_anycast(parse("[service=x][vspace=never-registered]"), b"x")
        domain.run(1.0)
        assert a.stats.packets_dropped == dropped_before + 1

    def test_advertisement_for_foreign_vspace_forwarded(self, split_domain):
        """A service that attaches to the wrong INR still gets its name
        into the right vspace tree."""
        domain, a, b, client = split_domain
        domain.add_service("[service=temp[id=2]][vspace=sensors]", resolver=a)
        domain.run(1.0)
        assert b.name_count("sensors") == 2


class TestMultiVspaceDiscovery:
    def test_unscoped_discovery_spans_all_local_vspaces(self):
        """Section 2.2: discovery with no vspace constraint matches all
        the names the resolver knows about, across its vspaces."""
        domain = InsDomain(seed=23)
        inr = domain.add_inr(vspaces=("cams", "printers"))
        domain.add_service("[service=camera[id=1]][vspace=cams]", resolver=inr)
        domain.add_service("[service=printer[id=2]][vspace=printers]",
                           resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        reply = client.discover(NameSpecifier())
        domain.run(1.0)
        services = {name.root("service").value for name, _ in reply.value}
        assert services == {"camera", "printer"}

    def test_scoped_discovery_stays_in_its_vspace(self):
        domain = InsDomain(seed=24)
        inr = domain.add_inr(vspaces=("cams", "printers"))
        domain.add_service("[service=camera[id=1]][vspace=cams]", resolver=inr)
        domain.add_service("[service=printer[id=2]][vspace=printers]",
                           resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        reply = client.discover(parse("[vspace=cams]"))
        domain.run(1.0)
        services = {name.root("service").value for name, _ in reply.value}
        assert services == {"camera"}


class TestMemoStats:
    def test_repeated_resolution_surfaces_memo_counters(self, queryable):
        """InrStats aggregates the lookup-memo counters across every
        tree the resolver owns (vspaces + packet-cache index)."""
        domain, a, b, client = queryable
        query = parse("[service=cam]")
        client.resolve_early(query)
        domain.run(0.5)
        misses_after_first = a.stats.snapshot()["lookup_memo_misses"]
        hits_after_first = a.stats.snapshot()["lookup_memo_hits"]
        assert misses_after_first > 0
        client.resolve_early(query)
        domain.run(0.5)
        assert a.stats.snapshot()["lookup_memo_hits"] > hits_after_first
        assert a.stats.snapshot()["lookup_memo_misses"] == misses_after_first

    def test_new_advertisement_surfaces_invalidation(self, queryable):
        domain, a, b, client = queryable
        query = parse("[service=cam]")
        client.resolve_early(query)
        domain.run(0.5)
        domain.add_service("[service=cam[id=3]][room=512]", resolver=a)
        domain.run(0.5)
        client.resolve_early(query)
        domain.run(0.5)
        assert a.stats.snapshot()["lookup_memo_invalidations"] > 0

    def _tree_totals(self, inr):
        trees = list(inr.trees.values())
        if inr.cache is not None:
            trees.append(inr.cache.index)
        return (
            sum(t.memo_hits for t in trees),
            sum(t.memo_misses for t in trees),
            sum(t.memo_invalidations for t in trees),
        )

    def _stat_totals(self, inr):
        stats = inr.stats
        return (
            stats.snapshot()["lookup_memo_hits"],
            stats.snapshot()["lookup_memo_misses"],
            stats.snapshot()["lookup_memo_invalidations"],
        )

    def test_a_no_route_drop_does_not_leave_the_counters_behind(self, queryable):
        """An anycast nobody matches returns from the routing path at
        its no-route drop; the lookup it made still has to show."""
        domain, a, b, client = queryable
        dropped = a.stats.drops_no_route
        misses = a.stats.snapshot()["lookup_memo_misses"]
        client.send_anycast(parse("[service=nobody-advertises-this]"), b"x")
        domain.run(0.5)
        assert a.stats.drops_no_route == dropped + 1
        assert a.stats.snapshot()["lookup_memo_misses"] == misses + 1
        assert self._stat_totals(a) == self._tree_totals(a)

    def test_snapshot_keeps_the_memo_counters_where_they_were(self, queryable):
        domain, a, b, client = queryable
        client.resolve_early(parse("[service=cam]"))
        domain.run(0.5)
        snapshot = a.stats.snapshot()
        keys = list(snapshot)
        at = keys.index("lookup_memo_hits")
        assert keys[at - 1:at + 4] == [
            "drops_unknown_message", "lookup_memo_hits", "lookup_memo_misses",
            "lookup_memo_invalidations", "custody_accepted",
        ]
        assert (
            snapshot["lookup_memo_hits"], snapshot["lookup_memo_misses"],
            snapshot["lookup_memo_invalidations"],
        ) == self._tree_totals(a)

    def test_restart_starts_the_counters_over(self, queryable):
        domain, a, b, client = queryable
        client.resolve_early(parse("[service=cam]"))
        domain.run(0.5)
        assert a.stats.snapshot()["lookup_memo_misses"] > 0
        a.crash()
        a.restart()
        assert self._stat_totals(a) == (0, 0, 0)

    def test_a_dropped_tree_keeps_its_counts_in_the_stats(self):
        """Delegating a vspace away removes its tree; the lookups that
        tree served stay counted."""
        domain = InsDomain(seed=25)
        inr = domain.add_inr(vspaces=("cams", "printers"))
        domain.add_service("[service=camera[id=1]][vspace=cams]", resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        for _ in range(3):
            client.resolve_early(parse("[service=camera][vspace=cams]"))
            domain.run(0.5)
        before = self._stat_totals(inr)
        assert before[0] >= 2 and before[1] >= 1
        inr.drop_tree("cams")
        assert "cams" not in inr.trees
        assert self._stat_totals(inr) == before
