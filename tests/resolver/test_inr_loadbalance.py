"""Tests for spawn-on-overload and vspace delegation (Section 2.5)."""

import pytest

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.resolver import InrConfig, ResolutionRequest
from repro.resolver.ports import INR_PORT

from ..conftest import parse
from ..protocol_trace import ProtocolTrace


def loaded_config(**overrides) -> InrConfig:
    fields = dict(
        enable_load_balancing=True,
        spawn_lookup_rate=100.0,
        delegate_update_rate=1e9,
        terminate_lookup_rate=1.0,
        load_check_interval=5.0,
        minimum_lifetime=10.0,
        refresh_interval=1e6,
    )
    fields.update(overrides)
    return InrConfig(**fields)


def blast_lookups(domain, client, inr, rate, duration):
    """Open-loop lookup load through the client's *current* resolver, so
    re-selection actually moves the load to spawned helpers."""
    query = parse("[service=hot]")
    interval = 1.0 / rate

    def one():
        target = client.resolver or inr.address
        client.send(
            target,
            INR_PORT,
            ResolutionRequest(
                name=query, reply_to=client.address, reply_port=client.port
            ),
        )

    for i in range(int(duration / interval)):
        domain.sim.schedule(i * interval, one)


class TestSpawning:
    def test_overload_spawns_on_candidate(self):
        domain = InsDomain(seed=40, config=loaded_config())
        inr = domain.add_inr(address="inr-main")
        domain.add_candidate("spare-1")
        domain.add_service("[service=hot[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr, reselect_interval=5.0)
        domain.settle()
        blast_lookups(domain, client, inr, rate=900, duration=30)
        domain.run(20.0)  # snapshot while the load is still flowing
        assert "spare-1" in domain.dsr.active_inrs
        # The spawned INR serves the same vspaces as the overloaded one.
        spawned = next(i for i in domain.inrs if i.address == "spare-1")
        assert spawned.vspaces == inr.vspaces
        # Client re-selection moved the load onto the helper.
        assert spawned.stats.lookups > 0

    def test_no_spawn_without_candidates(self):
        domain = InsDomain(seed=41, config=loaded_config())
        inr = domain.add_inr(address="inr-main")
        domain.add_service("[service=hot[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.settle()
        blast_lookups(domain, client, inr, rate=400, duration=20)
        domain.run(20.0)
        assert domain.dsr.active_inrs == ("inr-main",)

    def test_no_spawn_under_light_load(self):
        domain = InsDomain(seed=42, config=loaded_config())
        inr = domain.add_inr(address="inr-main")
        domain.add_candidate("spare-1")
        domain.add_service("[service=hot[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.settle()
        blast_lookups(domain, client, inr, rate=5, duration=20)
        domain.run(25.0)
        assert "spare-1" not in domain.dsr.active_inrs

    def test_idle_spawned_inr_terminates_and_frees_node(self):
        domain = InsDomain(seed=43, config=loaded_config())
        inr = domain.add_inr(address="inr-main")
        domain.add_candidate("spare-1")
        domain.add_service("[service=hot[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr, reselect_interval=5.0)
        domain.settle()
        blast_lookups(domain, client, inr, rate=900, duration=15)
        domain.run(12.0)
        assert "spare-1" in domain.dsr.active_inrs
        domain.run(200.0)  # load gone; helper should retire
        assert domain.dsr.active_inrs == ("inr-main",)
        # ...and its node is available for the next overload.
        assert "spare-1" in domain.dsr.candidates

    def test_freed_node_can_be_spawned_onto_again(self):
        """Regression: terminate must return the node to the candidate
        pool in a state the next overload can actually claim — spawn,
        retire, then spawn onto the *same* node a second time."""
        domain = InsDomain(seed=47, config=loaded_config())
        inr = domain.add_inr(address="inr-main")
        domain.add_candidate("spare-1")
        domain.add_service("[service=hot[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr, reselect_interval=5.0)
        domain.settle()
        blast_lookups(domain, client, inr, rate=900, duration=15)
        domain.run(12.0)
        assert "spare-1" in domain.dsr.active_inrs
        first = domain.inr_at("spare-1")
        domain.run(200.0)  # idle: the helper retires, node freed
        assert domain.dsr.active_inrs == ("inr-main",)
        assert "spare-1" in domain.dsr.candidates
        assert first.terminated
        # Second overload wave claims the same node again.
        blast_lookups(domain, client, inr, rate=900, duration=15)
        domain.run(12.0)
        assert "spare-1" in domain.dsr.active_inrs
        second = domain.inr_at("spare-1")
        assert second is not first and not second.terminated
        assert second.was_spawned

    def test_spawned_sole_vspace_owner_never_terminates(self):
        """The termination guard: an idle INR that is the only resolver
        for a vspace must stay up (its names would become orphans)."""
        domain = InsDomain(
            seed=44,
            config=loaded_config(
                delegate_update_rate=20.0, refresh_interval=1.0,
                record_lifetime=1e9,
            ),
        )
        inr = domain.add_inr(address="inr-main", vspaces=("space-a", "space-b"))
        domain.add_candidate("spare-1")
        for i in range(60):
            space = "space-a" if i % 2 else "space-b"
            domain.add_service(f"[service=bulk[id=n{i}]][vspace={space}]",
                               resolver=inr, refresh_interval=1.0)
        domain.run(30.0)  # update overload -> delegation to spare-1
        assert len(inr.vspaces) == 1
        domain.run(200.0)  # idle forever after; spare-1 must persist
        assert "spare-1" in domain.dsr.active_inrs


class TestDelegation:
    def test_delegated_vspace_moves_with_names(self):
        domain = InsDomain(
            seed=45,
            config=loaded_config(
                delegate_update_rate=20.0, refresh_interval=1.0,
                record_lifetime=1e9, spawn_lookup_rate=1e9,
            ),
        )
        inr = domain.add_inr(address="inr-main", vspaces=("space-a", "space-b"))
        domain.add_candidate("spare-1")
        for i in range(60):
            space = "space-a" if i % 2 else "space-b"
            domain.add_service(f"[service=bulk[id=n{i}]][vspace={space}]",
                               resolver=inr, refresh_interval=1.0)
        domain.run(30.0)
        delegated = next(v for v in ("space-a", "space-b") if v not in inr.vspaces)
        spawned = next(i for i in domain.inrs if i.address == "spare-1")
        assert spawned.vspaces == (delegated,)
        assert spawned.name_count(delegated) == 30
        assert domain.dsr.resolvers_for(delegated) == ("spare-1",)

    def test_queries_for_delegated_space_still_resolve(self):
        domain = InsDomain(
            seed=46,
            config=loaded_config(
                delegate_update_rate=20.0, refresh_interval=1.0,
                record_lifetime=1e9, spawn_lookup_rate=1e9,
            ),
        )
        inr = domain.add_inr(address="inr-main", vspaces=("space-a", "space-b"))
        domain.add_candidate("spare-1")
        for i in range(60):
            space = "space-a" if i % 2 else "space-b"
            domain.add_service(f"[service=bulk[id=n{i}]][vspace={space}]",
                               resolver=inr, refresh_interval=1.0)
        domain.run(30.0)
        delegated = next(v for v in ("space-a", "space-b") if v not in inr.vspaces)
        client = domain.add_client(resolver=inr)
        reply = client.resolve_early(parse(f"[service=bulk][vspace={delegated}]"))
        domain.run(2.0)
        assert len(reply.value) == 30

    def test_single_shot_arm_sends_what_a_full_table_would(self):
        """The ablation arm (``delegation_two_phase=False``) asks the
        discovery component what to say about each record, as every
        update round does: no second statement of an update's fields."""
        domain = InsDomain(
            seed=48,
            config=loaded_config(delegation_two_phase=False, record_lifetime=1e9),
        )
        trace = ProtocolTrace(keep_payloads=True).attach(domain.network)
        inr = domain.add_inr(address="inr-main", vspaces=("space-a", "space-b"))
        domain.add_candidate("spare-1")
        domain.network.add_node("onlooker")
        for i in range(9):
            space = "space-a" if i % 3 else "space-b"
            domain.add_service(
                f"[service=bulk[id=n{i}]][vspace={space}]", resolver=inr,
                metric=float(i),
            )
        domain.run(2.0)
        inr.discovery.send_full_table("onlooker")
        inr.load._delegate_vspace("spare-1")
        (full,) = [e for e in trace.between("inr-main", "onlooker") if e.kind == "UpdateBatch"]
        (flung,) = [e for e in trace.between("inr-main", "spare-1") if e.kind == "UpdateBatch"]
        assert inr.vspaces == ("space-b",)
        assert len(flung.payload.updates) == 6 and flung.payload.triggered
        assert flung.payload.updates == [
            update for update in full.payload.updates if update.vspace == "space-a"
        ]
        assert flung.size == flung.payload.wire_size()
