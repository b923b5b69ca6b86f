"""Tests for the two-phase crash-safe vspace handoff (PROTOCOL.md §11).

The integration-shaped tests drive the real load policy — sustained
update overload makes the donor delegate its busiest vspace — and crash
one side mid-protocol. The reconciliation tests drive the coordinator
directly with crafted frames, pinning the fencing and restart-probe
rules one message at a time.
"""

import pytest

from repro.experiments import InsDomain
from repro.message import (
    DelegateOffer,
    DelegateRecord,
    DelegateTransfer,
)
from repro.nametree import NameTree
from repro.resolver import InrConfig
from repro.resolver.delegation import RecipientHandoff

from ..conftest import parse


def delegating_config(**overrides) -> InrConfig:
    fields = dict(
        enable_load_balancing=True,
        spawn_lookup_rate=1e9,  # park the lookup-overload path
        delegate_update_rate=20.0,
        terminate_lookup_rate=1.0,
        load_check_interval=5.0,
        minimum_lifetime=10.0,
        refresh_interval=1.0,
        record_lifetime=1e9,
        delegation_timeout=0.3,
        delegation_chunk_names=8,
        delegation_retry_cooldown=1.0,
    )
    fields.update(overrides)
    return InrConfig(**fields)


def overloaded_domain(seed, n_candidates=1, **config_overrides):
    """A donor routing two vspaces under sustained update overload, plus
    ``n_candidates`` spare nodes for it to hand off to."""
    domain = InsDomain(seed=seed, config=delegating_config(**config_overrides))
    donor = domain.add_inr(address="inr-main", vspaces=("space-a", "space-b"))
    for i in range(n_candidates):
        domain.add_candidate(f"spare-{i + 1}")
    for i in range(60):
        space = "space-a" if i % 2 else "space-b"
        domain.add_service(f"[service=bulk[id=n{i}]][vspace={space}]",
                           resolver=donor, refresh_interval=1.0)
    return domain, donor


def crash_when(domain, predicate, victim):
    """Poll simulated time and crash ``victim()`` once ``predicate()``
    first holds — how the tests hit an exact protocol phase."""
    def poll():
        if predicate():
            target = victim()
            if target is not None and not target.terminated:
                target.crash()
            return
        domain.sim.schedule(0.001, poll)

    domain.sim.schedule(0.001, poll)


def live_record_total(domain):
    return sum(inr.name_count() for inr in domain.live_inrs)


class TestTwoPhaseHappyPath:
    def test_handoff_commits_and_both_sides_settle(self):
        domain, donor = overloaded_domain(seed=50)
        domain.run(30.0)
        delegated = next(
            v for v in ("space-a", "space-b") if v not in donor.vspaces
        )
        spawned = domain.inr_at("spare-1")
        assert donor.delegation.delegated_away == {delegated: "spare-1"}
        assert spawned.delegation.adopted == {delegated: "inr-main"}
        assert not donor.delegation.busy and not spawned.delegation.busy
        assert donor.stats.delegations_committed == 1
        assert spawned.stats.delegations_adopted == 1
        assert donor.stats.delegations_aborted == 0
        assert spawned.name_count(delegated) == 30
        assert domain.dsr.resolvers_for(delegated) == ("spare-1",)

    def test_records_travel_in_stop_and_wait_chunks(self):
        domain, donor = overloaded_domain(seed=51)
        domain.run(30.0)
        spawned = domain.inr_at("spare-1")
        # 30 records at chunk size 8 -> 4 chunks, every record acked
        # across and none duplicated.
        assert donor.stats.delegate_records_sent == 30
        assert spawned.stats.delegate_records_received == 30
        assert live_record_total(domain) == 60

    def test_queries_resolve_through_the_new_owner(self):
        domain, donor = overloaded_domain(seed=52)
        domain.run(30.0)
        delegated = next(
            v for v in ("space-a", "space-b") if v not in donor.vspaces
        )
        client = domain.add_client(resolver=donor)
        reply = client.resolve_early(
            parse(f"[service=bulk][vspace={delegated}]")
        )
        domain.run(2.0)
        assert len(reply.value) == 30


class TestCrashRecovery:
    def test_recipient_crash_mid_transfer_donor_keeps_tree(self):
        domain, donor = overloaded_domain(seed=53, n_candidates=1)
        crash_when(
            domain,
            lambda: (donor.delegation.donor is not None
                     and donor.delegation.donor.phase == "transfer"
                     and donor.delegation.donor.chunks_acked >= 1),
            lambda: domain.inr_at("spare-1"),
        )
        domain.run(30.0)
        # The only candidate died mid-handoff: the donor aborted, never
        # stopped serving, and still routes both vspaces — zero loss.
        assert donor.stats.delegations_aborted >= 1
        assert donor.stats.delegations_committed == 0
        assert not donor.delegation.busy
        assert set(donor.vspaces) == {"space-a", "space-b"}
        assert donor.name_count() == 60

    def test_abort_retries_onto_fresh_candidate(self):
        domain, donor = overloaded_domain(seed=54, n_candidates=2)
        crash_when(
            domain,
            lambda: (donor.delegation.donor is not None
                     and donor.delegation.donor.phase == "transfer"
                     and donor.delegation.donor.chunks_acked >= 1),
            lambda: domain.inr_at(donor.delegation.donor.recipient),
        )
        domain.run(60.0)
        # Self-healing: after the abort and cooldown the load checker
        # claims the remaining spare and the handoff completes there.
        assert donor.stats.delegations_aborted >= 1
        assert donor.stats.delegations_committed == 1
        assert len(donor.vspaces) == 1
        delegated, recipient = next(
            iter(donor.delegation.delegated_away.items())
        )
        owner = domain.inr_at(recipient)
        assert not owner.terminated
        assert owner.name_count(delegated) == 30
        assert live_record_total(domain) == 60


class TestRestartReconciliation:
    """The two-generals races, one crafted message at a time."""

    def reconciliation_domain(self, seed):
        domain = InsDomain(seed=seed, config=delegating_config(
            enable_load_balancing=False
        ))
        a = domain.add_inr(address="inr-a", vspaces=("v",))
        b = domain.add_inr(address="inr-b", vspaces=("w",))
        return domain, a, b

    def test_restart_probe_rolled_back_by_unfinalized_donor(self):
        """Both sides crashed mid-handoff: the restarted recipient's
        snapshot remembers the adoption and probes; the donor still
        routes the vspace, so it cannot have finalized — abort wins."""
        domain, a, b = self.reconciliation_domain(60)
        b.delegation.adopt_snapshot(((), (("v", "inr-a", 7),)))
        assert "v" in b.trees  # adopted back, pending the probe's answer
        domain.run(1.0)
        assert b.delegation.adopted == {}
        assert "v" not in b.trees
        assert b.stats.delegation_rollbacks == 1
        assert "v" in a.vspaces  # exactly one authority: the donor

    def test_restart_probe_echoed_by_finalized_donor(self):
        """The donor finalized before both crashes (``delegated_away``
        is in its snapshot): the probe gets an echo and the adoption
        stands."""
        domain, a, b = self.reconciliation_domain(61)
        a.delegation.delegated_away["x"] = "inr-b"
        b.delegation.adopt_snapshot(((), (("x", "inr-a", 9),)))
        domain.run(1.0)
        assert b.delegation.adopted == {"x": "inr-a"}
        assert "x" in b.trees
        assert b.stats.delegation_rollbacks == 0
        assert not b.delegation.busy

    def test_late_commit_for_aborted_handoff_rolls_recipient_back(self):
        """The donor aborted id 11 but the recipient adopted off a
        retransmitted final chunk and commits late: abort wins."""
        domain, a, b = self.reconciliation_domain(62)
        a.delegation._aborted_ids[11] = "x"
        handoff = RecipientHandoff(handoff_id=11, vspace="x", donor="inr-a",
                                   total_records=0, phase="committed")
        b.delegation.recipients[11] = handoff
        b.delegation.adopted["x"] = "inr-a"
        b.delegation._adopted_ids["x"] = 11
        b.trees["x"] = NameTree(vspace="x")
        b.delegation._send_commit(handoff)
        domain.run(1.0)
        assert b.delegation.adopted == {}
        assert "x" not in b.trees
        assert b.stats.delegation_rollbacks == 1
        assert 11 not in b.delegation.recipients


class TestFencingAndStaleness:
    def make_recipient(self, seed):
        domain = InsDomain(seed=seed, config=delegating_config(
            enable_load_balancing=False
        ))
        a = domain.add_inr(address="inr-a", vspaces=("v",))
        b = domain.add_inr(address="inr-b", vspaces=("w",))
        return domain, a, b

    def test_offer_below_fence_is_dropped_and_counted(self):
        domain, a, b = self.make_recipient(63)
        b.delegation._fence["inr-a"] = 100
        b.handle_message(
            DelegateOffer(sender="inr-a", handoff_id=50, vspace="x",
                          total_records=0),
            "inr-a",
        )
        assert 50 not in b.delegation.recipients
        assert b.stats.delegate_stale_dropped == 1

    def test_reoffer_of_settled_handoff_answered_with_terminal(self):
        domain, a, b = self.make_recipient(64)
        b.delegation._remember(60, "aborted", "x", "inr-a")
        b.handle_message(
            DelegateOffer(sender="inr-a", handoff_id=60, vspace="x",
                          total_records=0),
            "inr-a",
        )
        domain.run(0.5)
        # Settled means settled: no new recipient state was opened.
        assert 60 not in b.delegation.recipients
        assert b.delegation._settled[60][0] == "aborted"

    def test_duplicate_chunk_reacked_not_reapplied(self):
        domain, a, b = self.make_recipient(65)
        handoff = RecipientHandoff(handoff_id=70, vspace="x", donor="inr-a",
                                   total_records=16, expected_seq=1)
        b.delegation.recipients[70] = handoff
        record = DelegateRecord(
            name=parse("[service=bulk[id=n0]][vspace=x]"),
            announcer_host="h0", announcer_startup=0.0,
            endpoints=(("10.0.0.1", 5000, "udp"),),
            anycast_metric=0.0, route_metric=0.0, lifetime=30.0,
        )
        b.handle_message(
            DelegateTransfer(sender="inr-a", handoff_id=70, vspace="x",
                             seq=0, final=False, records=(record,)),
            "inr-a",
        )
        assert handoff.staged == []  # duplicate: re-acked, not re-applied
        assert handoff.expected_seq == 1
        # ...and a chunk from the future is dropped as a gap.
        b.handle_message(
            DelegateTransfer(sender="inr-a", handoff_id=70, vspace="x",
                             seq=5, final=False, records=(record,)),
            "inr-a",
        )
        assert handoff.expected_seq == 1
        assert b.stats.delegate_stale_dropped == 1

    def test_transfer_for_unknown_handoff_aborted_not_adopted(self):
        """A chunk for a handoff this process never heard of (it crashed
        between offer and transfer) must refuse fast so the donor keeps
        its tree instead of burning its whole retry budget."""
        domain, a, b = self.make_recipient(66)
        record = DelegateRecord(
            name=parse("[service=bulk[id=n0]][vspace=x]"),
            announcer_host="h0", announcer_startup=0.0,
            endpoints=(("10.0.0.1", 5000, "udp"),),
            anycast_metric=0.0, route_metric=0.0, lifetime=30.0,
        )
        b.handle_message(
            DelegateTransfer(sender="inr-a", handoff_id=999, vspace="x",
                             seq=0, final=True, records=(record,)),
            "inr-a",
        )
        domain.run(0.5)
        assert 999 not in b.delegation.recipients
        assert "x" not in b.trees
        assert b.delegation.adopted == {}


class TestStagingTimeout:
    def test_orphaned_staging_recipient_abandons_the_handoff(self):
        """An offer whose donor then goes silent forever (crashed, and
        its restart forgot the handoff) must not pin the recipient busy:
        past the donor's whole retry budget it discards the staging
        state and settles the id as aborted."""
        domain = InsDomain(seed=67, config=delegating_config(
            enable_load_balancing=False
        ))
        a = domain.add_inr(address="inr-a", vspaces=("v",))
        b = domain.add_inr(address="inr-b", vspaces=("w",))
        b.handle_message(
            DelegateOffer(sender="inr-a", handoff_id=80, vspace="x",
                          total_records=16),
            "inr-a",
        )
        assert b.delegation.busy
        # patience = delegation_timeout * (MAX_RETRIES + 2) = 0.3 * 5 = 1.5
        domain.run(3.0)
        assert not b.delegation.busy
        assert 80 not in b.delegation.recipients
        assert b.delegation._settled[80][0] == "aborted"
        assert "x" not in b.trees
