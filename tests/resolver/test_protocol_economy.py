"""Protocol-economy tests: the discovery protocol must not send more
than it needs to. Uses the protocol tracer to assert on actual traffic.
"""

import pytest

from repro.experiments import InsDomain
from repro.resolver import InrConfig

from ..conftest import parse
from ..protocol_trace import ProtocolTrace


@pytest.fixture
def traced():
    domain = InsDomain(
        seed=950, config=InrConfig(refresh_interval=5.0, record_lifetime=15.0)
    )
    trace = ProtocolTrace(keep_payloads=True).attach(domain.network)
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    return domain, trace, a, b


def batches_between(trace, source, destination, since=0.0):
    return [
        event for event in trace.between(source, destination)
        if event.kind == "UpdateBatch" and event.time >= since
    ]


class TestUpdateEconomy:
    def test_pure_refreshes_do_not_trigger(self, traced):
        """A service refreshing unchanged state must produce periodic
        traffic only — no triggered updates (Section 2.2: triggered
        updates carry NEW information)."""
        domain, trace, a, b = traced
        domain.add_service("[service=e[id=1]]", resolver=a,
                           refresh_interval=5.0, lifetime=15.0)
        domain.run(2.0)
        start = domain.now
        domain.run(20.0)
        batches = batches_between(trace, "inr-a", "inr-b", since=start)
        triggered = [e for e in batches if e.payload.triggered]
        assert triggered == []
        # but periodic re-floods do flow (the soft-state refresh)
        periodic = [e for e in batches if not e.payload.triggered]
        assert len(periodic) >= 3

    def test_metric_change_triggers_exactly_once(self, traced):
        domain, trace, a, b = traced
        service = domain.add_service("[service=e[id=1]]", resolver=a,
                                     refresh_interval=5.0, lifetime=15.0)
        domain.run(2.0)
        start = domain.now
        service.set_metric(7.0)
        domain.run(1.0)
        triggered = [
            e for e in batches_between(trace, "inr-a", "inr-b", since=start)
            if e.payload.triggered
        ]
        assert len(triggered) == 1
        assert len(triggered[0].payload.updates) == 1

    def test_split_horizon_keeps_updates_small(self, traced):
        """inr-a's periodic updates to inr-b must not echo names whose
        next hop IS inr-b."""
        domain, trace, a, b = traced
        domain.add_service("[service=e[id=b-local]]", resolver=b,
                           refresh_interval=5.0, lifetime=15.0)
        domain.run(2.0)
        start = domain.now
        domain.run(12.0)
        for event in batches_between(trace, "inr-a", "inr-b", since=start):
            assert event.payload.updates == []

    def test_periodic_size_scales_with_names(self, traced):
        domain, trace, a, b = traced
        for i in range(5):
            domain.add_service(f"[service=e[id=n{i}]]", resolver=a,
                               refresh_interval=5.0, lifetime=15.0)
        domain.run(2.0)
        start = domain.now
        domain.run(6.0)
        periodic = [
            e for e in batches_between(trace, "inr-a", "inr-b", since=start)
            if not e.payload.triggered
        ]
        assert periodic, "expected at least one periodic round"
        assert all(len(e.payload.updates) == 5 for e in periodic)


class TestQueryEconomy:
    def test_resolution_is_one_round_trip(self, traced):
        domain, trace, a, b = traced
        domain.add_service("[service=e[id=1]]", resolver=a,
                           refresh_interval=5.0, lifetime=15.0)
        client = domain.add_client(address="c-host", resolver=a)
        domain.run(1.0)
        start = domain.now
        client.resolve_early(parse("[service=e]"))
        domain.run(1.0)
        requests = [e for e in trace.since(start)
                    if e.kind == "ResolutionRequest"]
        responses = [e for e in trace.since(start)
                     if e.kind == "ResolutionResponse"]
        assert len(requests) == 1
        assert len(responses) == 1
        assert responses[0].destination == "c-host"
