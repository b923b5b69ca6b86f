"""FaultPlan generation, validation and controller scheduling."""

import pytest

from repro.chaos import FAULT_KINDS, ChaosController, FaultEvent, FaultPlan, plan as plan_module
from repro.experiments import InsDomain


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at=1.0, kind="meteor-strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(at=-0.1, kind="crash-inr", target="inr-1")

    def test_params_lookup(self):
        event = FaultEvent(
            at=1.0, kind="cpu-degrade", target="inr-1", params=(("factor", 0.25),)
        )
        assert event.param("factor") == 0.25
        assert event.param("absent", 1.0) == 1.0


class TestFaultPlanBuild:
    def test_events_sorted_by_time(self):
        plan = FaultPlan.build(
            [
                FaultEvent(at=5.0, kind="crash-inr", target="b"),
                FaultEvent(at=1.0, kind="crash-inr", target="a"),
            ]
        )
        assert [event.at for event in plan] == [1.0, 5.0]
        assert len(plan) == 2


class TestFaultPlanRandom:
    ADDRESSES = [f"inr-{i}" for i in range(1, 11)]
    LINKS = [(f"inr-{i}", f"inr-{i + 1}") for i in range(1, 10)]

    def test_same_seed_same_plan(self):
        kwargs = dict(
            inr_addresses=self.ADDRESSES,
            link_pairs=self.LINKS,
            duration=60.0,
            dsr_failover=True,
            cpu_degrade_fraction=0.2,
            link_fault_fraction=0.2,
        )
        assert FaultPlan.random(7, **kwargs) == FaultPlan.random(7, **kwargs)

    def test_different_seed_different_plan(self):
        kwargs = dict(inr_addresses=self.ADDRESSES, link_pairs=self.LINKS)
        assert FaultPlan.random(1, **kwargs) != FaultPlan.random(2, **kwargs)

    def test_input_order_does_not_matter(self):
        """The generator canonicalises its inputs, so shuffled address
        lists produce the identical timeline."""
        forward = FaultPlan.random(3, self.ADDRESSES, self.LINKS)
        backward = FaultPlan.random(
            3, list(reversed(self.ADDRESSES)), list(reversed(self.LINKS))
        )
        assert forward == backward

    def test_crash_fraction_rounds_up(self):
        plan = FaultPlan.random(
            5, self.ADDRESSES, crash_fraction=0.25, restart_after=None
        )
        crashes = [e for e in plan if e.kind == "crash-inr"]
        assert len(crashes) == 3  # ceil(0.25 * 10)
        assert not [e for e in plan if e.kind == "restart-inr"]

    def test_every_crash_gets_a_restart(self):
        plan = FaultPlan.random(
            5, self.ADDRESSES, crash_fraction=0.3, restart_after=4.0
        )
        crashes = {e.target: e.at for e in plan if e.kind == "crash-inr"}
        restarts = {e.target: e.at for e in plan if e.kind == "restart-inr"}
        assert set(restarts) == set(crashes)
        for address, crashed_at in crashes.items():
            assert restarts[address] == pytest.approx(crashed_at + 4.0)

    def test_flaps_come_in_down_up_pairs(self, monkeypatch):
        monkeypatch.setattr(plan_module, "FLAP_LENGTH", 6.0)
        plan = FaultPlan.random(9, self.ADDRESSES, self.LINKS, flap_fraction=0.2)
        downs = {e.target: e.at for e in plan if e.kind == "link-down"}
        ups = {e.target: e.at for e in plan if e.kind == "link-up"}
        assert set(downs) == set(ups) and downs
        for pair, down_at in downs.items():
            assert ups[pair] == pytest.approx(down_at + 6.0)

    def test_fault_times_leave_recovery_headroom(self):
        plan = FaultPlan.random(
            11, self.ADDRESSES, self.LINKS, duration=50.0,
            dsr_failover=True, link_fault_fraction=0.3,
        )
        # Clearing events (restarts, link-ups, zeroed link-faults) may
        # land later; the injections themselves stay inside 60% of the
        # duration so recovery fits in the run.
        injections = [
            e
            for e in plan
            if e.kind in ("crash-inr", "link-down", "dsr-failover", "cpu-degrade")
            or (e.kind == "link-faults" and e.param("duplicate_rate") > 0)
        ]
        assert injections
        assert all(e.at <= 50.0 * 0.6 for e in injections)

    def test_kinds_listed(self):
        plan = FaultPlan.random(1, self.ADDRESSES, self.LINKS, dsr_failover=True)
        assert set(plan.kinds) <= set(FAULT_KINDS)
        assert "dsr-failover" in plan.kinds


class TestChaosController:
    def test_events_fire_relative_to_execute_time(self):
        """Setup time must not eat into the fault timeline: an event at
        t=2 fires two seconds after execute(), wherever `now` is."""
        domain = InsDomain(seed=1)
        inr = domain.add_inr()
        domain.run(5.0)  # arbitrary setup delay
        started_at = domain.now
        controller = ChaosController(domain)
        controller.execute(
            FaultPlan.build([FaultEvent(at=2.0, kind="crash-inr",
                                        target=inr.address)])
        )
        domain.run(1.9)
        assert not controller.applied
        domain.run(0.2)
        assert [e.kind for e in controller.applied] == ["crash-inr"]
        assert inr.terminated
        assert domain.now == pytest.approx(started_at + 2.1)

    def test_cpu_degrade_and_restore(self):
        domain = InsDomain(seed=2)
        inr = domain.add_inr()
        original = inr.node.cpu.speed
        controller = ChaosController(domain)
        controller.execute(
            FaultPlan.build(
                [
                    FaultEvent(at=0.5, kind="cpu-degrade", target=inr.address,
                               params=(("factor", 0.25),)),
                    FaultEvent(at=1.5, kind="cpu-restore", target=inr.address),
                ]
            )
        )
        domain.run(1.0)
        assert inr.node.cpu.speed == pytest.approx(original * 0.25)
        domain.run(1.0)
        assert inr.node.cpu.speed == pytest.approx(original)

    def test_link_faults_toggle(self):
        domain = InsDomain(seed=3)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        link = domain.network.link("inr-a", "inr-b")
        controller = ChaosController(domain)
        controller.execute(
            FaultPlan.build(
                [
                    FaultEvent(
                        at=0.5, kind="link-faults", target=("inr-a", "inr-b"),
                        params=(("duplicate_rate", 0.5), ("reorder_rate", 0.3)),
                    ),
                    FaultEvent(
                        at=1.5, kind="link-faults", target=("inr-a", "inr-b"),
                        params=(("duplicate_rate", 0.0), ("reorder_rate", 0.0)),
                    ),
                ]
            )
        )
        domain.run(1.0)
        assert link.duplicate_rate == 0.5 and link.reorder_rate == 0.3
        domain.run(1.0)
        assert link.duplicate_rate == 0.0 and link.reorder_rate == 0.0


class TestFaultPlanDutyCycle:
    LINKS = [("inr-a", "inr-b"), ("inr-b", "inr-c")]

    def test_same_seed_same_plan(self):
        kwargs = dict(link_pairs=self.LINKS, start=1.0, end=31.0, period=6.0)
        assert FaultPlan.duty_cycle(7, **kwargs) == FaultPlan.duty_cycle(
            7, **kwargs
        )

    def test_different_seed_different_phases(self):
        kwargs = dict(link_pairs=self.LINKS, start=1.0, end=31.0, period=6.0)
        assert FaultPlan.duty_cycle(1, **kwargs) != FaultPlan.duty_cycle(
            2, **kwargs
        )

    def test_every_link_ends_up(self):
        """The closing event for every link is its link-up: a duty
        plan never strands a link down past its window."""
        plan = FaultPlan.duty_cycle(
            3, self.LINKS, start=0.0, end=40.0, period=5.0, duty=0.4
        )
        final = {}
        for event in plan:
            assert 0.0 <= event.at <= 40.0
            assert event.kind in ("link-down", "link-up")
            final[event.target] = event.kind
        assert len(final) == len(self.LINKS)
        assert set(final.values()) == {"link-up"}

    def test_duty_fraction_validated(self):
        with pytest.raises(ValueError, match="duty"):
            FaultPlan.duty_cycle(0, self.LINKS, start=0.0, end=10.0, duty=1.0)
        with pytest.raises(ValueError, match="period"):
            FaultPlan.duty_cycle(0, self.LINKS, start=5.0, end=5.0)

    def test_links_actually_cycle(self, monkeypatch):
        """Executing a duty plan toggles the physical link state."""
        domain = InsDomain(seed=4)
        domain.add_inr(address="inr-a")
        domain.add_inr(address="inr-b")
        link = domain.network.link("inr-a", "inr-b")
        monkeypatch.setattr(plan_module, "PHASE_JITTER", 0.0)
        plan = FaultPlan.duty_cycle(
            0, [("inr-a", "inr-b")], start=0.5, end=10.5, period=10.0
        )
        controller = ChaosController(domain)
        controller.execute(plan)
        domain.run(7.0)
        assert link.up is False
        domain.run(5.0)
        assert link.up is True
