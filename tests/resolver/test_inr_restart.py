"""INR crash -> restart lifecycle (chaos-harness support)."""

import pytest

from repro.experiments import InsDomain
from repro.resolver import InrConfig

from ..conftest import parse

FAST = InrConfig(
    refresh_interval=1.0,
    record_lifetime=3.0,
    expiry_sweep_interval=0.5,
    heartbeat_interval=1.0,
    neighbor_timeout=4.0,
)


def fast_domain(seed):
    return InsDomain(seed=seed, config=FAST, dsr_registration_lifetime=3.0,
                     dsr_sweep_interval=0.5)


class TestRestartGuards:
    def test_restart_requires_prior_crash(self):
        domain = fast_domain(70)
        inr = domain.add_inr()
        with pytest.raises(RuntimeError, match="only valid after"):
            inr.restart()

    def test_restart_refuses_taken_port(self):
        domain = fast_domain(71)
        inr = domain.add_inr(address="shared-host")
        inr.crash()
        # Another process grabs the INR port while the resolver is down.
        domain.network.node("shared-host").bind(inr.port, object())
        with pytest.raises(RuntimeError, match="taken"):
            inr.restart()


class TestRestartLifecycle:
    def test_state_is_wiped(self):
        domain = fast_domain(72)
        a = domain.add_inr()
        b = domain.add_inr()
        domain.add_service("[service=x[id=1]]", resolver=a,
                           refresh_interval=1.0, lifetime=3.0)
        domain.run(3.0)
        assert a.name_count() == 1 and len(a.neighbors) >= 1
        a.crash()
        a.restart()
        assert a.restarts == 1
        assert a.name_count() == 0
        assert len(a.neighbors) == 0
        assert not a.terminated

    def test_restart_rejoins_and_reregisters(self):
        domain = fast_domain(73)
        a = domain.add_inr()
        b = domain.add_inr()
        domain.run(2.0)
        a.crash()
        domain.run(10.0)  # long enough for everyone to forget a
        assert a.address not in domain.dsr.active_inrs
        a.restart()
        domain.run(5.0)
        assert a.address in domain.dsr.active_inrs
        assert b.address in a.neighbors and a.address in b.neighbors

    def test_names_rebuild_from_service_refreshes(self):
        """A restarted resolver's trees refill from the services' own
        periodic re-advertisements — soft state is the recovery
        protocol (Section 2.2)."""
        domain = fast_domain(74)
        a = domain.add_inr()
        domain.add_service("[service=x[id=1]]", resolver=a,
                           refresh_interval=1.0, lifetime=3.0)
        domain.run(2.0)
        a.crash()
        domain.run(6.0)
        a.restart()
        domain.run(2.5)  # > one refresh interval
        assert a.name_count() == 1

    def test_restarted_inr_resolves_queries(self):
        domain = fast_domain(75)
        a = domain.add_inr()
        b = domain.add_inr()
        service = domain.add_service("[service=x[id=1]]", resolver=a,
                                     refresh_interval=1.0, lifetime=3.0)
        domain.run(2.0)
        a.crash()
        domain.run(8.0)
        a.restart()
        domain.run(5.0)
        inbox = []
        service.on_message(lambda m, s: inbox.append(m.data))
        client = domain.add_client(resolver=a)
        client.send_anycast(parse("[service=x]"), b"hello-again")
        domain.run(1.0)
        assert inbox == [b"hello-again"]

    def test_restarted_monitor_window_starts_at_restart_time(self):
        """Regression: the rebuilt LoadMonitor must open its window at
        the restart instant. A default-constructed monitor (now=0.0)
        would stretch the first post-restart window back to the epoch,
        diluting — or after long uptime, faking — the load signal."""
        domain = fast_domain(77)
        a = domain.add_inr()
        domain.run(100.0)
        a.crash()
        domain.run(5.0)
        a.restart()
        a.stats.lookups += 10
        sample = a.monitor.sample(now=a.now + 1.0)
        # 10 lookups in the 1 s since restart: ~10/s, not 10/107 s.
        assert sample.lookups_per_second == pytest.approx(10.0, rel=0.01)

    def test_double_restart(self):
        domain = fast_domain(76)
        a = domain.add_inr()
        for expected in (1, 2):
            a.crash()
            a.restart()
            assert a.restarts == expected
        domain.run(3.0)
        assert a.address in domain.dsr.active_inrs
