"""Tests for the Process base class and timers."""

import pytest

from repro.netsim import CALLBACK, Network, PeriodicTimer, Process, Simulator, cancel


def build():
    sim = Simulator(seed=0)
    network = Network(sim, default_latency=0.0)
    node = network.add_node("host")
    return sim, network, node


class TestProcessBasics:
    def test_binding_and_rebinding(self):
        sim, network, node = build()
        process = Process(node, 10)
        assert node.process_on(10) is process
        with pytest.raises(ValueError):
            Process(node, 10)
        process.stop()
        assert node.process_on(10) is None
        Process(node, 10)  # port is free again

    def test_address_tracks_node(self):
        sim, network, node = build()
        process = Process(node, 10)
        assert process.address == "host"
        network.rename_node("host", "roaming")
        assert process.address == "roaming"

    def test_send_uses_payload_wire_size(self):
        class Sized:
            def wire_size(self):
                return 123

        sim, network, node = build()
        network.add_node("peer")
        process = Process(node, 10)
        process.send("peer", 99, Sized())
        assert network.link("host", "peer").stats.bytes == 123

    def test_send_defaults_to_zero_size(self):
        sim, network, node = build()
        network.add_node("peer")
        Process(node, 10).send("peer", 99, object())
        assert network.link("host", "peer").stats.bytes == 0

    def test_stop_cancels_timers(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        process.set_timer(1.0, fired.append, "one-shot")
        process.every(1.0, lambda: fired.append("periodic"))
        process.stop()
        sim.run_for(5.0)
        assert fired == []

    def test_dead_one_shot_timers_are_not_kept_forever(self):
        """A request timeout per op — set, then cancelled or fired —
        must not grow the process for the life of the run; stop() still
        cancels whatever can fire."""
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        periodic = process.every(1e6, lambda: fired.append("periodic"))
        longest = 0
        for index in range(5000):
            timer = process.set_timer(0.5, fired.append, index)
            if index % 2:
                cancel(timer)
            sim.run_for(1.0)
            longest = max(longest, len(process._timers))
        assert fired == list(range(0, 5000, 2))
        assert longest <= 64
        assert periodic in process._timers
        live = process.set_timer(5.0, fired.append, "live")
        process.stop()
        sim.run_for(2000.0)
        assert live[CALLBACK] is None and periodic.stopped
        assert fired == list(range(0, 5000, 2))

    def test_pending_timers_survive_the_sweep(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        for index in range(300):  # all still pending: nothing to drop
            process.set_timer(10.0 + index, fired.append, index)
        assert len(process._timers) == 300
        process.stop()
        sim.run_for(1000.0)
        assert fired == []


class TestTimers:
    def test_one_shot_timer(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        process.set_timer(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_periodic_timer_repeats(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        timer = process.every(1.0, lambda: fired.append(sim.now))
        sim.run_for(3.5)
        assert fired == [1.0, 2.0, 3.0]
        timer.stop()
        sim.run_for(5.0)
        assert len(fired) == 3

    def test_fire_immediately(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        process.every(1.0, lambda: fired.append(sim.now), fire_immediately=True)
        sim.run_for(2.5)
        assert fired == [0.0, 1.0, 2.0]

    def test_jitter_spreads_firings(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        process.every(1.0, lambda: fired.append(sim.now), jitter_fraction=0.2)
        sim.run_for(10.0)
        intervals = [b - a for a, b in zip(fired, fired[1:])]
        assert all(0.8 <= i <= 1.2 for i in intervals)
        assert len(set(intervals)) > 1  # actually jittered

    def test_invalid_timer_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter_fraction=1.0)

    def test_stop_mid_period(self):
        sim, network, node = build()
        process = Process(node, 10)
        fired = []
        timer = process.every(1.0, lambda: fired.append(sim.now))
        sim.run_for(1.5)
        timer.stop()
        assert timer.stopped
        sim.run_for(5.0)
        assert fired == [1.0]
