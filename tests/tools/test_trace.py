"""Tests for the protocol tracer."""

import pytest

from repro.experiments import InsDomain

from ..conftest import parse
from ..protocol_trace import ProtocolTrace, TraceOverflow


@pytest.fixture
def traced_domain():
    domain = InsDomain(seed=310)
    trace = ProtocolTrace(keep_payloads=True).attach(domain.network)
    inr = domain.add_inr()
    service = domain.add_service("[service=x[id=1]]", resolver=inr)
    client = domain.add_client(resolver=inr)
    domain.run(1.0)
    return domain, trace, inr, service, client


class TestTracing:
    def test_advertisements_are_observed(self, traced_domain):
        domain, trace, inr, service, client = traced_domain
        assert len(trace.of_kind("Advertisement")) >= 1

    def test_data_path_observed(self, traced_domain):
        domain, trace, inr, service, client = traced_domain
        before = len(trace.of_kind("DataPacket"))
        client.send_anycast(parse("[service=x]"), b"payload")
        domain.run(1.0)
        # client -> INR plus INR -> service tunnel
        assert len(trace.of_kind("DataPacket")) == before + 2

    def test_between_filters_endpoints(self, traced_domain):
        domain, trace, inr, service, client = traced_domain
        client.send_anycast(parse("[service=x]"), b"payload")
        domain.run(1.0)
        hops = trace.between(client.address, inr.address)
        assert any(event.kind == "DataPacket" for event in hops)

    def test_payload_retention_switch(self):
        domain = InsDomain(seed=311)
        trace = ProtocolTrace(keep_payloads=False).attach(domain.network)
        domain.add_inr()
        assert all(event.payload is None for event in trace.events)

    def test_since_filters_by_time(self, traced_domain):
        domain, trace, inr, service, client = traced_domain
        cutoff = domain.now
        client.send_anycast(parse("[service=x]"), b"p")
        domain.run(1.0)
        assert all(event.time >= cutoff for event in trace.since(cutoff))

    def test_double_attach_rejected(self):
        domain = InsDomain(seed=313)
        trace = ProtocolTrace().attach(domain.network)
        with pytest.raises(RuntimeError):
            trace.attach(domain.network)

    def test_capacity_bounds_memory(self):
        domain = InsDomain(seed=314)
        trace = ProtocolTrace(capacity=3).attach(domain.network)
        domain.add_inr()
        domain.run(5.0)
        assert len(trace.events) == 3


class TestOverflow:
    """Past capacity the trace counts what it lost and refuses to lie."""

    @pytest.fixture
    def overflowed(self):
        domain = InsDomain(seed=315)
        trace = ProtocolTrace(capacity=3).attach(domain.network)
        domain.add_inr()
        domain.run(5.0)
        assert trace.dropped > 0
        return trace

    def test_dropped_counts_the_overflow(self, overflowed):
        assert len(overflowed.events) == 3
        assert overflowed.dropped > 0

    def test_queries_raise_on_truncated_trace(self, overflowed):
        with pytest.raises(TraceOverflow):
            overflowed.of_kind("DataPacket")
        with pytest.raises(TraceOverflow):
            overflowed.between("a", "b")
        with pytest.raises(TraceOverflow):
            overflowed.since(0.0)

    def test_allow_dropped_opts_into_truncated_view(self, overflowed):
        assert len(overflowed.since(0.0, allow_dropped=True)) == 3

    def test_no_overflow_means_no_raise(self):
        domain = InsDomain(seed=316)
        trace = ProtocolTrace().attach(domain.network)
        domain.add_inr()
        assert trace.dropped == 0
        assert len(trace.since(0.0)) > 0
