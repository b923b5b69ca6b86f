"""Custody store-and-forward inside the INR (disruption tolerance).

A late-binding anycast payload the forwarding agent cannot move is
parked in the custody store instead of dropped, re-attempted when name
state returns, and restored after a crash/restart; a custodian that
terminates drops what it holds. Every way a custodied payload can
finally die has its own ``drops_*`` cause and a ``drop:<cause>`` span
status.
"""

from dataclasses import replace

import pytest

from repro.chaos.scenario import fast_chaos_config
from repro.experiments import InsDomain
from repro.resolver import custody

from ..conftest import parse


@pytest.fixture(autouse=True)
def small_store(monkeypatch):
    monkeypatch.setattr(custody, "CUSTODY_CAPACITY", 8)


def custody_config(**overrides):
    settings = dict(enable_custody=True, custody_ttl=20.0)
    settings.update(overrides)
    return replace(fast_chaos_config(), **settings)


def make_domain(config, seed=11, n_inrs=1):
    domain = InsDomain(
        seed=seed,
        config=config,
        dsr_registration_lifetime=3.0,
        dsr_sweep_interval=0.5,
    )
    inrs = [domain.add_inr() for _ in range(n_inrs)]
    client = domain.add_client(resolver=inrs[0])
    domain.run(2.0)
    return domain, inrs, client


class TestStoreAndForward:
    def test_no_route_payload_waits_for_the_service(self):
        """The tentpole behavior: a payload sent before its service
        exists is held, then delivered when the name appears — the name
        waits out the gap."""
        domain, (inr,), client = make_domain(custody_config())
        client.send_anycast(parse("[service=late]"), b"wait-for-me")
        domain.run(0.5)
        assert inr.stats.custody_accepted == 1
        assert inr.stats.drops_no_route == 0
        assert len(inr.custody) == 1
        assert inr.custody.entries()[0].cause == "no-route"

        inbox = []
        service = domain.add_service("[service=late]", resolver=inr)
        service.on_message(lambda m, s: inbox.append(m))
        domain.run(3.0)
        assert [m.data for m in inbox] == [b"wait-for-me"]
        assert inr.stats.custody_released == 1
        assert len(inr.custody) == 0
        assert inr.stats.packets_dropped == 0

    def test_custody_ttl_lapse_is_an_attributed_drop(self):
        domain, (inr,), client = make_domain(custody_config(custody_ttl=1.0))
        client.send_anycast(parse("[service=never]"), b"doomed")
        domain.run(3.0)
        assert inr.stats.drops_custody_expired == 1
        assert inr.stats.custody_accepted == 1
        assert inr.stats.drops_by_cause()["custody-expired"] == 1
        assert inr.stats.packets_dropped == 1
        assert len(inr.custody) == 0

    def test_capacity_eviction_is_an_attributed_drop(self, monkeypatch):
        monkeypatch.setattr(custody, "CUSTODY_CAPACITY", 1)
        domain, (inr,), client = make_domain(custody_config())
        client.send_anycast(parse("[service=first]"), b"old")
        client.send_anycast(parse("[service=second]"), b"new")
        domain.run(0.5)
        assert inr.stats.custody_accepted == 2
        assert inr.stats.drops_custody_evicted == 1
        assert inr.stats.drops_by_cause()["custody-evicted"] == 1
        (held,) = inr.custody.entries()
        assert held.destination == parse("[service=second]")

    def test_multicast_is_never_custodied(self):
        """A multicast payload has no single custodian; it keeps the
        paper's drop behavior even with custody on."""
        domain, (inr,), client = make_domain(custody_config())
        client.send_multicast(parse("[service=nobody]"), b"x")
        domain.run(0.5)
        assert inr.stats.drops_no_route == 1
        assert inr.stats.custody_accepted == 0

    def test_custody_spans_carry_drop_statuses(self):
        """Satellite: lost payloads stay attributable from traces alone
        — the accept ends the hop span, the lapse opens a custody span
        with a ``drop:`` status."""
        config = custody_config(custody_ttl=1.0)
        domain = InsDomain(
            seed=11,
            config=config,
            dsr_registration_lifetime=3.0,
            dsr_sweep_interval=0.5,
        )
        collector = domain.observe()
        inr = domain.add_inr()
        client = domain.add_client(resolver=inr)
        domain.run(2.0)
        client.send_anycast(parse("[service=never]"), b"doomed")
        domain.run(3.0)
        statuses = {span.status for span in collector.tracer.spans}
        assert "custody-accepted" in statuses
        assert "drop:custody-expired" in statuses


class TestSuspectNextHop:
    def test_silent_next_hop_diverts_into_custody(self):
        """A live route through a silent neighbor is a dead link in
        disguise; the payload goes into custody, not onto the link."""
        config = custody_config(custody_suspect_silence=1.0)
        domain, (a, b), client = make_domain(config, n_inrs=2)
        inbox = []
        service = domain.add_service("[service=far]", resolver=b)
        service.on_message(lambda m, s: inbox.append(m))
        domain.run(2.0)

        domain.network.partition([a.address], [b.address])
        domain.run(1.5)
        client.send_anycast(parse("[service=far]"), b"through-the-gap")
        domain.run(0.3)
        assert a.stats.custody_accepted == 1
        assert a.custody.entries()[0].cause == "next-hop-suspect"

        domain.network.heal([a.address], [b.address])
        domain.run(4.0)
        assert [m.data for m in inbox] == [b"through-the-gap"]
        assert a.stats.custody_released == 1


class TestCustodyMigration:
    def test_crash_restart_preserves_custody(self):
        """Custody is stable storage: the payloads held at crash are
        restored on restart with deadlines intact."""
        domain, (inr,), client = make_domain(custody_config())
        client.send_anycast(parse("[service=later]"), b"persist-me")
        domain.run(0.5)
        deadline = inr.custody.entries()[0].deadline

        domain.crash_inr(inr)
        domain.run(1.0)
        domain.restart_inr(inr)
        domain.run(1.0)
        assert len(inr.custody) == 1
        assert inr.custody.entries()[0].deadline == deadline

        inbox = []
        service = domain.add_service("[service=later]", resolver=inr)
        service.on_message(lambda m, s: inbox.append(m))
        domain.run(3.0)
        assert [m.data for m in inbox] == [b"persist-me"]

    def test_a_retiring_custodian_drops_what_it_holds(self):
        """Custody is single-hop: a terminating resolver's held payloads
        die with it, each counted as ``drops_terminated`` and ended as a
        ``drop:terminated`` span under its own trace."""
        domain = InsDomain(
            seed=11,
            config=custody_config(),
            dsr_registration_lifetime=3.0,
            dsr_sweep_interval=0.5,
        )
        collector = domain.observe()
        inr = domain.add_inr()
        client = domain.add_client(resolver=inr)
        domain.run(2.0)
        client.send_anycast(parse("[service=later]"), b"one")
        client.send_anycast(parse("[service=never]"), b"two")
        domain.run(0.5)
        held = [entry.trace.trace_id for entry in inr.custody.entries()]
        assert len(held) == 2

        inr.terminate()
        assert inr.stats.drops_terminated == 2
        assert inr.stats.drops_by_cause() == {"terminated": 2}
        assert len(inr.custody) == 0
        spans = [s for s in collector.tracer.spans if s.name == "inr.custody"]
        assert [(s.trace_id, s.status) for s in spans] == [
            (trace_id, "drop:terminated") for trace_id in held
        ]

