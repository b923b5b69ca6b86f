"""Custody store-and-forward inside the INR (disruption tolerance).

A late-binding anycast payload the forwarding agent cannot move is
parked in the custody store instead of dropped, re-attempted when name
state returns, handed off when the custodian terminates, and preserved
across a crash/restart through the snapshot/adopt pattern. Every way a
custodied payload can finally die has its own ``drops_*`` cause and a
``drop:<cause>`` span status.
"""

from dataclasses import replace

import pytest

from repro.chaos.scenario import fast_chaos_config
from repro.experiments import InsDomain
from repro.message import CustodyRecord, CustodyTransfer, InsMessage
from repro.obs import TraceContext
from repro.resolver import custody

from ..conftest import forge_packet, parse


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
    def test_terminate_hands_custody_to_a_neighbor(self):
        """Held payloads must not die with their custodian: a
        terminating INR ships them in a CUSTODY-TRANSFER, and they are
        delivered once the successor learns the name."""
        domain, (a, b), client = make_domain(custody_config(), n_inrs=2)
        # Custody lands on the client's resolver (a); terminate it.
        client.send_anycast(parse("[service=later]"), b"survive-me")
        domain.run(0.5)
        custodian = a if len(a.custody) else b
        survivor = b if custodian is a else a
        assert len(custodian.custody) == 1

        custodian.terminate()
        domain.run(1.0)
        assert custodian.stats.custody_transfers_sent == 1
        assert survivor.stats.custody_transfers_received == 1
        assert len(survivor.custody) == 1
        (held,) = survivor.custody.entries()
        assert held.transfers == 1

        inbox = []
        service = domain.add_service("[service=later]", resolver=survivor)
        service.on_message(lambda m, s: inbox.append(m))
        domain.run(3.0)
        assert [m.data for m in inbox] == [b"survive-me"]

    def test_crash_restart_preserves_custody(self):
        """Custody is stable storage: the snapshot taken at crash is
        re-adopted on restart with deadlines intact."""
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

    def test_transfer_into_custodyless_resolver_is_attributed(self):
        """A handoff landing where no custody store runs loses its
        payloads — but each loss is counted and has a span status, not
        silently swallowed."""
        domain, (inr,), _client = make_domain(
            replace(fast_chaos_config(), enable_custody=False)
        )
        raw = InsMessage(destination=parse("[service=x]"), data=b"p").encode()
        transfer = CustodyTransfer(
            sender="inr-ghost",
            records=(
                CustodyRecord(
                    raw=raw,
                    vspace="default",
                    deadline=domain.now + 10.0,
                    priority=0,
                    transfers=1,
                ),
            ),
        )
        inr.custodian._handle_custody_transfer(transfer, "inr-ghost")
        assert inr.stats.custody_transfers_received == 1
        assert inr.stats.drops_custody_transfer_failed == 1
        assert inr.stats.drops_by_cause()["custody-transfer-failed"] == 1

    def test_the_loss_is_traced_even_when_the_names_do_not_parse(self):
        """The span joins the payload's trace from the header's context
        alone; a record whose name sections are garbage (or that is no
        packet at all) is still one attributed loss, not an exception."""
        domain, (inr,), _client = make_domain(
            replace(fast_chaos_config(), enable_custody=False)
        )
        collector = domain.observe()
        context = TraceContext(trace_id=55, span_id=9)
        records = tuple(
            CustodyRecord(
                raw=raw, vspace="default", deadline=domain.now + 10.0,
                priority=0, transfers=1,
            )
            for raw in (forge_packet("", "[[", b"p", trace=context), b"\x01")
        )
        inr.custodian._handle_custody_transfer(
            CustodyTransfer(sender="inr-ghost", records=records), "inr-ghost"
        )
        assert inr.stats.drops_custody_transfer_failed == 2
        spans = [s for s in collector.tracer.spans if s.name == "inr.custody"]
        assert [(s.trace_id, s.status) for s in spans] == [
            (55, "drop:custody-transfer-failed")
        ]


class TestPartitionGrace:
    def test_refresh_inside_grace_readmits_and_counts(self):
        """Satellite: soft-state expiry during a partition keeps a
        tombstone for the grace window, so the service's first
        post-heal refresh re-admits the name (counted in InrStats)
        instead of rebuilding from nothing."""
        config = custody_config(partition_grace=6.0)
        domain, (inr,), client = make_domain(config)
        service = domain.add_service("[service=graced]", resolver=inr)
        domain.run(2.0)

        domain.network.partition([service.address], [inr.address])
        # Past the record lifetime (3s) but inside lifetime + grace.
        domain.run(5.0)
        # The graced record is a tombstone: queries must not bind to it.
        reply = client.resolve_early(parse("[service=graced]"))
        domain.run(0.5)
        assert reply.done and reply.value == []

        domain.network.heal([service.address], [inr.address])
        domain.run(2.0)
        assert inr.stats.expiry_grace_readmissions >= 1
        reply = client.resolve_early(parse("[service=graced]"))
        domain.run(0.5)
        assert reply.done and len(reply.value) == 1
