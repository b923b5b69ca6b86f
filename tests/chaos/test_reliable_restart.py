"""Chaos: neighbor crash + restart under reliable-delta updates.

The regression this pins down: a restarted INR opens fresh reliable
connections whose sequence numbers begin at 1 again. Before connection
epochs, the surviving neighbor's stale receive cursor silently swallowed
every post-restart frame as a "duplicate" (and the survivor's own
continuing high sequence numbers sat unresolvable in the restarted
peer's reorder buffer), so the domain never reconverged. The crash
window here is deliberately shorter than the neighbor timeout: the
survivor keeps its stale channel state rather than timing the peer out.
"""

from repro.chaos.invariants import InvariantChecker
from repro.experiments import InsDomain
from repro.resolver import InrConfig, discovery


def reliable_delta_config() -> InrConfig:
    return InrConfig(
        update_mode="reliable-delta",
        refresh_interval=2.0,
        record_lifetime=6.0,
        expiry_sweep_interval=1.0,
        heartbeat_interval=1.0,
        neighbor_timeout=8.0,
    )


class TestReliableRestart:
    def test_neighbor_crash_and_restart_reconverges(self, monkeypatch):
        monkeypatch.setattr(discovery, "RELIABLE_RETRANSMIT_TIMEOUT", 0.5)
        domain = InsDomain(seed=808, config=reliable_delta_config())
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        domain.add_service("[service=rr[id=a1]]", resolver=a,
                           refresh_interval=2.0, lifetime=6.0)
        domain.add_service("[service=rr[id=b1]]", resolver=b,
                           refresh_interval=2.0, lifetime=6.0)
        domain.run(4.0)
        assert a.name_count() == 2
        assert b.name_count() == 2

        domain.crash_inr("inr-b")
        domain.run(3.0)  # < neighbor_timeout: a keeps stale channel state
        domain.restart_inr("inr-b")
        # A service b never saw before the crash: its advertisement can
        # only reach a through post-restart reliable frames.
        domain.add_service("[service=rr[id=b2]]", resolver=b,
                           refresh_interval=2.0, lifetime=6.0)

        checker = InvariantChecker(domain)
        domain.run(checker.convergence_bound())
        assert a.name_count() == 3
        assert b.name_count() == 3
        assert checker.check_converged() == []
