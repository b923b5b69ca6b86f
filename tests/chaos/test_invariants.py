"""InvariantChecker: overlay shape, routing loops, claims, name sync."""

import pytest

from repro.chaos import InvariantChecker
from repro.chaos.scenario import fast_chaos_config
from repro.experiments import InsDomain


def make_domain(seed=50, n_inrs=4, n_services=2):
    config = fast_chaos_config()
    domain = InsDomain(seed=seed, config=config, dsr_registration_lifetime=3.0,
                       dsr_sweep_interval=0.5)
    inrs = [domain.add_inr() for _ in range(n_inrs)]
    for index in range(n_services):
        domain.add_service(
            f"[service=inv[id={index}]]",
            resolver=inrs[index % n_inrs],
            refresh_interval=config.refresh_interval,
            lifetime=config.record_lifetime,
        )
    domain.run(3.0)
    return domain, inrs


class TestHealthyDomain:
    def test_all_invariants_hold_at_steady_state(self):
        domain, _inrs = make_domain()
        checker = InvariantChecker(domain)
        assert checker.check_always() == []
        assert checker.check_converged() == []

    def test_periodic_sampling_accumulates_nothing_when_healthy(self):
        domain, _inrs = make_domain()
        checker = InvariantChecker(domain).install(0.5)
        domain.run(5.0)
        checker.uninstall()
        assert checker.violations == []
        assert checker.samples_taken == 10

    def test_install_twice_rejected(self):
        domain, _inrs = make_domain(n_inrs=1, n_services=0)
        checker = InvariantChecker(domain).install()
        with pytest.raises(RuntimeError, match="already installed"):
            checker.install()

    def test_uninstall_stops_sampling(self):
        domain, _inrs = make_domain(n_inrs=1, n_services=0)
        checker = InvariantChecker(domain).install(0.5)
        domain.run(2.0)
        taken = checker.samples_taken
        checker.uninstall()
        domain.run(2.0)
        assert checker.samples_taken == taken


class TestOverlayShape:
    def test_cycle_detected(self):
        """Force a peering cycle by hand; the forest invariant flags it."""
        domain, inrs = make_domain(n_inrs=3, n_services=0)
        a, b, c = inrs
        # Complete the triangle behind the protocol's back.
        a.neighbors.add(b.address, rtt=0.01)
        b.neighbors.add(c.address, rtt=0.01)
        c.neighbors.add(a.address, rtt=0.01)
        b.neighbors.add(a.address, rtt=0.01)
        c.neighbors.add(b.address, rtt=0.01)
        a.neighbors.add(c.address, rtt=0.01)
        violations = InvariantChecker(domain).overlay_is_forest()
        assert violations
        assert violations[0].invariant == "overlay-acyclic"

    def test_disconnected_overlay_is_a_forest_but_not_a_tree(self):
        domain, inrs = make_domain(n_inrs=4, n_services=0)
        # Sever one INR from everyone, bilaterally.
        loner = inrs[-1]
        for other in inrs[:-1]:
            loner.neighbors.remove(other.address)
            other.neighbors.remove(loner.address)
        checker = InvariantChecker(domain)
        assert checker.overlay_is_forest() == []
        violations = checker.overlay_is_single_tree()
        assert violations
        assert violations[0].invariant == "overlay-single-tree"

    def test_crashed_inrs_are_ignored(self):
        """A crashed resolver's stale neighbor entries must not count."""
        domain, inrs = make_domain(n_inrs=3, n_services=0)
        inrs[0].crash()
        domain.run(fast_chaos_config().neighbor_timeout + 2.0)
        checker = InvariantChecker(domain)
        assert checker.overlay_is_forest() == []
        assert checker.overlay_is_single_tree() == []


class TestClaims:
    def test_duplicate_candidate_flagged(self):
        domain, _inrs = make_domain(n_inrs=1, n_services=0)
        domain.dsr._candidates = ["spare-1", "spare-1"]
        violations = InvariantChecker(domain).no_duplicate_candidate_claims()
        assert violations
        assert "duplicates" in violations[0].detail

    def test_candidate_also_active_flagged(self):
        domain, inrs = make_domain(n_inrs=1, n_services=0)
        domain.dsr._candidates = [inrs[0].address]
        violations = InvariantChecker(domain).no_duplicate_candidate_claims()
        assert violations
        assert "both" in violations[0].detail


class TestNameConsistency:
    def test_stale_name_flagged_before_expiry_sweep(self):
        """Kill a service, freeze the clocks: its record is now stale
        state the converged invariant must flag (the lifetime has not
        run out, so it is *visible* stale state)."""
        domain, inrs = make_domain(n_inrs=2, n_services=1)
        service = domain.services[0]
        service.stop()
        domain.run(0.1)  # not long enough for soft state to expire
        violations = InvariantChecker(domain).names_consistent()
        assert violations
        assert "stale" in violations[0].detail

    def test_stale_name_ages_out(self):
        domain, inrs = make_domain(n_inrs=2, n_services=1)
        domain.services[0].stop()
        checker = InvariantChecker(domain)
        domain.run(checker.convergence_bound())
        assert checker.names_consistent() == []

    def test_missing_name_flagged(self):
        domain, inrs = make_domain(n_inrs=2, n_services=1)
        service = domain.services[0]
        for vspace in service.name.vspaces():
            for inr in inrs:
                tree = inr.trees.get(vspace)
                if tree is not None and tree.record_for(service.announcer):
                    tree.remove_announcer(service.announcer)
        violations = InvariantChecker(domain).names_consistent()
        assert violations
        assert "missing" in violations[0].detail

    def test_convergence_bound_scales_with_clocks(self):
        fast_domain, _ = make_domain(n_inrs=2, n_services=0)
        slow_config = fast_chaos_config(refresh_interval=4.0,
                                        neighbor_timeout=12.0)
        slow_domain = InsDomain(seed=51, config=slow_config)
        slow_domain.add_inr()
        slow_domain.add_inr()
        fast_bound = InvariantChecker(fast_domain).convergence_bound()
        slow_bound = InvariantChecker(slow_domain).convergence_bound()
        assert slow_bound > fast_bound


class TestCustodyDrained:
    """Post-heal convergence: no payload may still sit in custody."""

    def custody_domain(self):
        from dataclasses import replace

        config = replace(
            fast_chaos_config(),
            enable_custody=True,
            custody_ttl=5.0,
        )
        domain = InsDomain(seed=52, config=config,
                           dsr_registration_lifetime=3.0,
                           dsr_sweep_interval=0.5)
        inr = domain.add_inr()
        client = domain.add_client(resolver=inr)
        domain.run(2.0)
        return domain, inr, client

    def test_vacuous_when_custody_disabled(self):
        domain, _inrs = make_domain(n_inrs=1, n_services=0)
        assert InvariantChecker(domain).custody_drained() == []

    def test_held_payload_past_bound_flagged(self):
        from repro.naming import NameSpecifier

        domain, inr, client = self.custody_domain()
        client.send_anycast(NameSpecifier.parse("[service=stuck]"), b"x")
        domain.run(0.5)
        assert len(inr.custody) == 1
        violations = InvariantChecker(domain).custody_drained()
        assert len(violations) == 1
        assert violations[0].invariant == "custody-drained"
        assert inr.address in violations[0].detail

    def test_settled_store_is_clean(self):
        """Once every payload lapses by TTL the store drains and the
        invariant holds again (the lapse is an attributed drop)."""
        from repro.naming import NameSpecifier

        domain, inr, client = self.custody_domain()
        client.send_anycast(NameSpecifier.parse("[service=stuck]"), b"x")
        checker = InvariantChecker(domain)
        domain.run(checker.convergence_bound())
        assert checker.custody_drained() == []
        assert inr.stats.drops_custody_expired == 1

    def test_bound_covers_custody_ttl(self):
        domain, _inr, _client = self.custody_domain()
        plain, _ = make_domain(n_inrs=1, n_services=0)
        assert (
            InvariantChecker(domain).convergence_bound()
            > InvariantChecker(plain).convergence_bound()
        )
