"""Tests for links, nodes and datagram delivery."""

import pytest

from repro.netsim import Link, Network, Process, Simulator


class Recorder(Process):
    """Collects (payload, source, arrival_time) triples."""

    def __init__(self, node, port, cost: float = 0.0):
        super().__init__(node, port)
        self.cost = cost
        self.received = []

    def processing_cost(self, payload, size_bytes):
        return self.cost

    def handle_message(self, payload, source):
        self.received.append((payload, source, self.now))


def build(seed=0, **net_kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, **net_kwargs)
    a = network.add_node("a")
    b = network.add_node("b")
    recorder = Recorder(b, 100)
    return sim, network, a, b, recorder


class TestLink:
    def test_transfer_delay(self):
        link = Link(latency=0.01, bandwidth_bps=1_000_000)
        # 1000 bytes at 1 Mbps = 8 ms transmission + 10 ms latency
        assert link.transfer_delay(1000) == pytest.approx(0.018)

    @pytest.mark.parametrize("kwargs", [
        dict(latency=-1, bandwidth_bps=1e6),
        dict(latency=0, bandwidth_bps=0),
        dict(latency=0, bandwidth_bps=1e6, loss_rate=1.0),
        dict(latency=0, bandwidth_bps=1e6, loss_rate=-0.1),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Link(**kwargs)


class TestDelivery:
    def test_basic_delivery(self):
        sim, network, a, b, recorder = build()
        network.send("a", "b", 100, "hello", 100)
        sim.run()
        assert recorder.received[0][0] == "hello"
        assert recorder.received[0][1] == "a"

    def test_delivery_delay_includes_latency_and_transmission(self):
        sim, network, a, b, recorder = build(
            default_latency=0.01, default_bandwidth_bps=1_000_000
        )
        network.send("a", "b", 100, "x", 1000)
        sim.run()
        assert recorder.received[0][2] == pytest.approx(0.018)

    def test_cpu_cost_delays_handler(self):
        sim = Simulator()
        network = Network(sim, default_latency=0.0)
        network.add_node("a")
        b = network.add_node("b")
        recorder = Recorder(b, 100, cost=0.5)
        network.send("a", "b", 100, "x", 0)
        sim.run()
        assert recorder.received[0][2] == pytest.approx(0.5)

    def test_local_delivery_skips_link(self):
        sim = Simulator()
        network = Network(sim)
        a = network.add_node("a")
        recorder = Recorder(a, 100)
        network.send("a", "a", 100, "loop", 50)
        sim.run()
        assert recorder.received[0][2] == 0.0
        assert network.link("a", "a").stats.messages == 0

    def test_unknown_destination_counted_undeliverable(self):
        sim, network, a, b, recorder = build()
        network.send("a", "ghost", 100, "x", 10)
        sim.run()
        assert network.undeliverable == 1

    def test_unbound_port_counted_undeliverable(self):
        sim, network, a, b, recorder = build()
        network.send("a", "b", 999, "x", 10)
        sim.run()
        assert network.undeliverable == 1
        assert recorder.received == []

    def test_link_stats_accumulate(self):
        sim, network, a, b, recorder = build()
        network.send("a", "b", 100, "x", 300)
        network.send("a", "b", 100, "y", 200)
        sim.run()
        stats = network.link("a", "b").stats
        assert stats.messages == 2
        assert stats.bytes == 500

    def test_negative_size_rejected(self):
        sim, network, a, b, recorder = build()
        with pytest.raises(ValueError):
            network.send("a", "b", 100, "x", -1)


class TestLoss:
    def test_lossy_link_drops_fraction(self):
        sim = Simulator(seed=7)
        network = Network(sim, default_loss_rate=0.5)
        network.add_node("a")
        b = network.add_node("b")
        recorder = Recorder(b, 100)
        for _ in range(200):
            network.send("a", "b", 100, "x", 10)
        sim.run()
        drops = network.link("a", "b").stats.drops
        assert 60 <= drops <= 140  # ~100 expected
        assert len(recorder.received) == 200 - drops

    def test_lossless_by_default(self):
        sim, network, a, b, recorder = build()
        for _ in range(50):
            network.send("a", "b", 100, "x", 10)
        sim.run()
        assert len(recorder.received) == 50


class TestTopologyManagement:
    def test_duplicate_node_rejected(self):
        _, network, *_ = build()
        with pytest.raises(ValueError):
            network.add_node("a")

    def test_configure_link_updates_in_place(self):
        _, network, *_ = build()
        link = network.configure_link("a", "b", latency=0.5)
        assert network.configure_link("a", "b", bandwidth_bps=42.0) is link
        assert link.latency == 0.5
        assert link.bandwidth_bps == 42.0

    @pytest.mark.parametrize("existing", [False, True], ids=["create", "update"])
    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth_bps=0), dict(bandwidth_bps=-1e6), dict(latency=-1.0),
        dict(latency=-1.0, bandwidth_bps=2e6),
    ])
    def test_configure_link_rejects_bad_latency_and_bandwidth(self, existing, kwargs):
        """An update bypasses Link.__init__; a zero bandwidth accepted
        there would only surface as a ZeroDivisionError in a later send,
        a negative latency as a datagram that arrives when it is sent."""
        sim, network, a, b, recorder = build()
        if existing:
            network.configure_link("a", "b", latency=0.25, bandwidth_bps=5e5)
        with pytest.raises(ValueError):
            network.configure_link("a", "b", **kwargs)
        # Rejected before any mutation, and the link still carries traffic.
        link = network.link("a", "b")
        expected = (0.25, 5e5) if existing else (
            network.default_latency, network.default_bandwidth_bps
        )
        assert (link.latency, link.bandwidth_bps) == expected
        network.send("a", "b", 100, "still works", 100)
        sim.run()
        assert recorder.received[0][2] == pytest.approx(link.transfer_delay(100))

    def test_link_is_symmetric(self):
        _, network, *_ = build()
        assert network.link("a", "b") is network.link("b", "a")

    def test_a_link_reconfigured_after_traffic_is_the_link_sends_use(self):
        """The per-direction path record holds the link object itself,
        and links are only ever mutated in place."""
        sim, network, a, b, recorder = build()
        network.send("a", "b", 100, "first", 100)
        sim.run()
        link = network.configure_link("a", "b", latency=0.5)
        network.send("a", "b", 100, "second", 100)
        network.partition(["a"], ["b"])
        network.send("a", "b", 100, "cut", 100)
        sim.run()
        first, second = recorder.received
        assert second[2] - first[2] == pytest.approx(0.5 + 800 / link.bandwidth_bps)
        assert link.stats.messages == 3 and link.stats.drops == 1

    def test_rename_node_moves_identity(self):
        sim, network, a, b, recorder = build()
        network.rename_node("b", "b-moved")
        network.send("a", "b-moved", 100, "found", 10)
        network.send("a", "b", 100, "lost", 10)
        sim.run()
        assert [payload for payload, *_ in recorder.received] == ["found"]
        assert network.undeliverable == 1

    def test_rename_to_existing_rejected(self):
        _, network, *_ = build()
        with pytest.raises(ValueError):
            network.rename_node("a", "b")


class TestFifoOrdering:
    def test_small_packets_cannot_overtake_large_ones(self):
        """Links are FIFO per direction: a 28-byte datagram sent after a
        1400-byte one must arrive after it."""
        sim, network, a, b, recorder = build()
        network.send("a", "b", 100, "big", 1400)
        network.send("a", "b", 100, "small", 28)
        sim.run()
        assert [payload for payload, *_ in recorder.received] == ["big", "small"]

    def test_opposite_directions_are_independent(self):
        sim = Simulator()
        network = Network(sim)
        network.add_node("a")
        b = network.add_node("b")
        recorder_b = Recorder(b, 100)
        a_node = network.node("a")
        recorder_a = Recorder(a_node, 100)
        network.send("a", "b", 100, "a-to-b", 1400)
        network.send("b", "a", 100, "b-to-a", 28)
        sim.run()
        # the reverse-direction datagram is not queued behind the big one
        assert recorder_a.received[0][2] < recorder_b.received[0][2]
