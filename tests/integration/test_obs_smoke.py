"""End-to-end observability smoke: spans across real INR hops.

Drives real traffic (early-binding lookups, late-binding anycast
through a forwarding hop, a lookup that can only drop) through an
observed :class:`InsDomain` and checks the three tentpole properties:
every request yields a well-formed span tree rooted at the client, a
drop carries its ``drops_*`` cause as the span status, and two
same-seed observed runs export byte-identical artifacts.
"""

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.obs import NO_PARENT, spans_to_jsonl

from ..conftest import parse, well_formed_traces


def build_observed_domain(seed: int = 42):
    domain = InsDomain(seed=seed)
    collector = domain.observe(profile_events=True)
    inr_a = domain.add_inr(address="inr-a")
    inr_b = domain.add_inr(address="inr-b")
    service = domain.add_service("[service=cam[id=1]]", resolver=inr_b)
    client = domain.add_client(resolver=inr_a)
    domain.settle()
    return domain, collector, client, service


class TestTracedRequests:
    def test_lookup_produces_client_rooted_tree(self):
        domain, collector, client, _service = build_observed_domain()
        reply = client.resolve_early(parse("[service=cam]"))
        domain.run(1.0)
        assert reply.done and reply.value
        assert well_formed_traces(collector.tracer.spans) == {}
        roots = [s for s in collector.tracer.spans if s.parent_span_id == NO_PARENT]
        assert [s.name for s in roots] == ["client.request"]
        resolves = [s for s in collector.tracer.spans
                    if s.name == "inr.resolve"]
        assert resolves and all(s.status == "ok" for s in resolves)

    def test_anycast_chains_one_hop_span_per_inr(self):
        domain, collector, client, _service = build_observed_domain()
        client.send_anycast(parse("[service=cam]"), b"frame")
        domain.run(1.0)
        assert well_formed_traces(collector.tracer.spans) == {}
        hops = [s for s in collector.tracer.spans if s.name == "inr.hop"]
        statuses = sorted(s.status for s in hops)
        # inr-a forwards toward inr-b, which delivers to the service.
        assert statuses == ["delivered", "forwarded"]
        by_id = {s.span_id: s for s in collector.tracer.spans}
        delivered = next(s for s in hops if s.status == "delivered")
        forwarded = next(s for s in hops if s.status == "forwarded")
        assert by_id[delivered.parent_span_id] is forwarded
        assert forwarded.node == "inr-a" and delivered.node == "inr-b"

    def test_drop_carries_its_cause_as_span_status(self):
        domain, collector, client, _service = build_observed_domain()
        client.send_anycast(parse("[service=nonexistent]"), b"lost")
        domain.run(1.0)
        drops = [s for s in collector.tracer.spans if s.is_drop]
        assert [s.drop_cause for s in drops] == ["no-route"]
        assert well_formed_traces(collector.tracer.spans) == {}

    def test_untraced_domain_emits_no_spans_and_untraced_packets(self):
        domain = InsDomain(seed=42)
        inr = domain.add_inr()
        domain.add_service("[service=cam[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.settle()
        assert client.tracer is None and inr.tracer is None
        reply = client.resolve_early(parse("[service=cam]"))
        domain.run(1.0)
        assert reply.done


class TestHarvestAndDeterminism:
    def scenario(self, seed: int = 42):
        domain, collector, client, _service = build_observed_domain(seed)
        client.resolve_early(parse("[service=cam]"))
        client.send_anycast(parse("[service=cam]"), b"frame")
        client.send_anycast(parse("[service=nonexistent]"), b"lost")
        domain.run(2.0)
        domain.harvest()
        return collector

    def test_harvest_labels_component_stats(self):
        snapshot = self.scenario().metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["inr.packets_forwarded"]["inr=inr-a"] >= 1
        assert counters["inr.packets_delivered_locally"]["inr=inr-b"] >= 1
        assert "client.requests_sent" in counters
        gauges = snapshot["gauges"]
        assert "inr.names" in gauges
        # the simulator profile installed by observe(profile_events=True)
        assert "sim.events" in counters

    def test_same_seed_runs_export_byte_identical_artifacts(self):
        first, second = self.scenario(), self.scenario()
        assert spans_to_jsonl(first.tracer.spans) == \
            spans_to_jsonl(second.tracer.spans)
        assert first.metrics_snapshot() == second.metrics_snapshot()

    def test_observability_payload_shape(self):
        payload = self.scenario().observability_payload()
        assert set(payload) == {"span_summary", "metrics"}
        assert payload["span_summary"]["drop_attribution"] == {"no-route": 1}
