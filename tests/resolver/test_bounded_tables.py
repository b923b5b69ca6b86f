"""Two tables of an INR that grew without bound: the vspace -> resolver
cache (bounded at two of its four write sites) and the table of
INR-pings awaiting a response (emptied only by the responses)."""

from repro.experiments import InsDomain
from repro.resolver import InrConfig
from repro.resolver.dataplane import VSPACE_CACHE_SIZE

CONFIG = InrConfig(
    neighbor_timeout=4.0,
    expiry_sweep_interval=0.5,
    refresh_interval=1.0,
    record_lifetime=3.0,
)


class TestVspaceCache:
    def test_adopting_a_large_delegation_snapshot_respects_the_bound(self):
        domain = InsDomain(seed=91, config=CONFIG)
        inr = domain.add_inr(address="inr-a")
        size = VSPACE_CACHE_SIZE
        delegated = tuple((f"space-{i}", f"inr-{i}") for i in range(size + 5))
        inr.delegation.adopt_snapshot((delegated, ()))
        cache = inr.dataplane._vspace_cache
        assert len(cache) == size
        # oldest out: what is left is what was delegated last
        assert list(cache.items()) == list(delegated[5:])

    def test_every_writer_goes_through_the_one_bounded_insert(self):
        domain = InsDomain(seed=92, config=CONFIG)
        inr = domain.add_inr(address="inr-a")
        for i in range(3 * VSPACE_CACHE_SIZE):
            inr.dataplane.remember_vspace(f"space-{i}", "inr-b")
            assert len(inr.dataplane._vspace_cache) <= VSPACE_CACHE_SIZE


class TestPendingPings:
    def test_pings_nobody_answers_are_forgotten_by_the_sweep(self):
        domain = InsDomain(seed=93, config=CONFIG)
        inr = domain.add_inr(address="inr-a")
        domain.network.add_node("black-hole")  # a host with no resolver on it
        pending = inr.membership._pending_pings
        for _ in range(100):
            inr.membership._ping("black-hole", purpose="relax")
        assert len(pending) == 100
        domain.run(CONFIG.neighbor_timeout - 1.0)
        assert len(pending) == 100  # not yet: a live peer may still answer
        domain.run(1.0 + 2 * CONFIG.expiry_sweep_interval)
        assert pending == {}

    def test_a_reply_inside_the_cutoff_is_still_observed(self):
        domain = InsDomain(seed=94, config=CONFIG)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        domain.run(CONFIG.neighbor_timeout + 2.0)  # sweeps have run
        before = a.neighbors.get("inr-b").rtt
        domain.network.configure_link("inr-a", "inr-b", latency=0.2)
        a.membership._ping("inr-b", purpose="parent-refresh")
        assert len(a.membership._pending_pings) == 1
        domain.run(1.0)
        assert a.membership._pending_pings == {}
        assert a.neighbors.get("inr-b").rtt != before
