"""Tests for the reliable channel and reliable-delta update mode."""

import pytest

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.resolver import InrConfig, discovery
from repro.resolver.reliable import ReliableAck, ReliableChannel, ReliableFrame

from ..conftest import parse


class FakeClock:
    """Drives ReliableChannel timers without a simulator."""

    def __init__(self):
        self.pending = []

    def set_timer(self, delay, fn, *args):
        self.pending.append((delay, fn, args))

    def fire_all(self):
        pending, self.pending = self.pending, []
        for _delay, fn, args in pending:
            fn(*args)


def make_pair():
    """Two channels wired back-to-back through in-memory queues."""
    clock = FakeClock()
    wires = {"a->b": [], "b->a": []}
    delivered = {"a": [], "b": []}

    channel_a = ReliableChannel(
        transmit=lambda nb, p: wires["a->b"].append(p),
        deliver=lambda nb, p: delivered["a"].append(p),
        set_timer=clock.set_timer,
    )
    channel_b = ReliableChannel(
        transmit=lambda nb, p: wires["b->a"].append(p),
        deliver=lambda nb, p: delivered["b"].append(p),
        set_timer=clock.set_timer,
    )

    def shuttle(drop_a_to_b=0):
        """Move frames across the wires; optionally drop the first n."""
        a_to_b, wires["a->b"] = wires["a->b"][drop_a_to_b:], []
        for payload in a_to_b:
            if isinstance(payload, ReliableFrame):
                ack = channel_b.on_frame("a", payload)
                wires["b->a"].append(ack)
            elif isinstance(payload, ReliableAck):
                channel_b.on_ack("a", payload)
        b_to_a, wires["b->a"] = wires["b->a"], []
        for payload in b_to_a:
            if isinstance(payload, ReliableFrame):
                ack = channel_a.on_frame("b", payload)
                wires["a->b"].append(ack)
            elif isinstance(payload, ReliableAck):
                channel_a.on_ack("b", payload)

    return clock, channel_a, channel_b, delivered, wires, shuttle


class TestReliableChannel:
    def test_in_order_delivery(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "one")
        a.send("b", "two")
        shuttle()
        assert delivered["b"] == ["one", "two"]

    def test_lost_frame_retransmitted(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "precious")
        wires["a->b"].clear()  # the datagram is lost
        shuttle()
        assert delivered["b"] == []
        clock.fire_all()  # retransmission timer
        shuttle()
        assert delivered["b"] == ["precious"]
        assert a.retransmissions == 1

    def test_reordering_buffered(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "first")
        a.send("b", "second")
        # Deliver out of order by swapping the wire.
        wires["a->b"].reverse()
        shuttle()
        assert delivered["b"] == ["first", "second"]

    def test_duplicates_suppressed(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "only-once")
        shuttle()
        clock.fire_all()  # spurious retransmit (ack raced the timer)
        shuttle()
        assert delivered["b"] == ["only-once"]
        assert b.duplicates_dropped >= 0

    def test_ack_stops_retransmission(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "x")
        shuttle()  # delivered and acked
        assert a.unacked_count("b") == 0
        clock.fire_all()
        shuttle()
        assert delivered["b"] == ["x"]

    def test_reset_clears_state(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "x")
        a.reset("b")
        assert a.unacked_count("b") == 0

    def test_retransmission_gives_up_eventually(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "void")
        for _ in range(ReliableChannel.MAX_RETRANSMISSIONS + 2):
            wires["a->b"].clear()
            clock.fire_all()
        assert a.unacked_count("b") == 0  # abandoned, not leaked


class TestConnectionEpochs:
    """The per-connection epoch handshake: restarts must never leave
    frames stranded as 'duplicates' behind a stale receive cursor."""

    def test_restarted_sender_frames_not_dropped_as_duplicates(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "one")
        a.send("b", "two")
        shuttle()
        assert delivered["b"] == ["one", "two"]
        # The sender's INR crashes and restarts: a fresh channel whose
        # sequence numbers begin at 1 again — below b's receive cursor.
        restarted = ReliableChannel(
            transmit=lambda nb, p: wires["a->b"].append(p),
            deliver=lambda nb, p: None,
            set_timer=clock.set_timer,
        )
        restarted.send("b", "post-restart")
        for payload in wires["a->b"]:
            if isinstance(payload, ReliableFrame):
                b.on_frame("a", payload)
        wires["a->b"].clear()
        # Without epochs this frame (sequence 1 < expected 3) would be
        # swallowed; the newer epoch resets b's receive state instead.
        assert delivered["b"] == ["one", "two", "post-restart"]
        assert b.epoch_resets == 1
        assert b.duplicates_dropped == 0

    def test_give_up_resets_the_whole_connection(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "void")
        a.send("b", "also-void")
        for _ in range(ReliableChannel.MAX_RETRANSMISSIONS + 2):
            wires["a->b"].clear()
            clock.fire_all()
        assert a.connection_resets == 1
        assert a.unacked_count("b") == 0
        # The link heals: the next send opens a fresh epoch from
        # sequence 1 and flows end-to-end.
        a.send("b", "after-heal")
        shuttle()
        assert delivered["b"] == ["after-heal"]

    def test_stale_epoch_frames_dropped_without_ack(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "old")
        straggler = wires["a->b"].pop()  # held in flight
        restarted = ReliableChannel(
            transmit=lambda nb, p: wires["a->b"].append(p),
            deliver=lambda nb, p: None,
            set_timer=clock.set_timer,
        )
        restarted.send("b", "new")
        b.on_frame("a", wires["a->b"].pop())
        assert delivered["b"] == ["new"]
        # The pre-restart frame finally arrives: older epoch, no ack
        # (acking it could only confuse a sender that moved on).
        assert b.on_frame("a", straggler) is None
        assert delivered["b"] == ["new"]
        assert b.stale_epoch_dropped == 1

    def test_stale_epoch_acks_ignored(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        a.send("b", "x")
        ack = b.on_frame("a", wires["a->b"].pop())
        a.reset("b")
        a.send("b", "y")
        a.on_ack("b", ack)  # acked sequence 1 — of the OLD epoch
        assert a.unacked_count("b") == 1

    def test_reorder_buffer_is_bounded(self):
        clock, a, b, delivered, wires, shuttle = make_pair()
        window = ReliableChannel.MAX_REORDER_BUFFER
        total = window + 6
        for i in range(total):
            a.send("b", f"f{i + 1}")
        frames = [p for p in wires["a->b"] if isinstance(p, ReliableFrame)]
        wires["a->b"].clear()
        for frame in frames[1:]:  # the first frame is lost
            b.on_frame("a", frame)
        assert b.reorder_buffered("a") == window
        assert b.reorder_dropped == total - 1 - window
        assert delivered["b"] == []
        # Retransmission recovers both the lost frame and the ones the
        # bounded buffer refused; two timer rounds suffice.
        for _ in range(2):
            clock.fire_all()
            shuttle()
        assert delivered["b"] == [f"f{i + 1}" for i in range(total)]
        assert b.reorder_buffered("a") == 0


class TestReliableDeltaMode:
    @pytest.fixture
    def reliable_domain(self):
        config = InrConfig(update_mode="reliable-delta",
                           refresh_interval=5.0, record_lifetime=15.0)
        domain = InsDomain(seed=700, config=config)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        return domain, a, b

    def test_invalid_mode_rejected(self):
        domain = InsDomain(seed=701, config=InrConfig(update_mode="carrier-pigeon"))
        with pytest.raises(ValueError):
            domain.add_inr()

    def test_names_propagate(self, reliable_domain):
        domain, a, b = reliable_domain
        domain.add_service("[service=r[id=1]]", resolver=a,
                           refresh_interval=5.0, lifetime=15.0)
        domain.run(2.0)
        assert b.name_count() == 1

    def test_periodic_traffic_is_constant_in_names(self, reliable_domain):
        domain, a, b = reliable_domain
        for i in range(25):
            domain.add_service(f"[service=r[id=n{i}]]", resolver=a,
                               refresh_interval=5.0, lifetime=15.0)
        domain.run(10.0)
        link = domain.network.link("inr-a", "inr-b")
        before = link.stats.bytes
        domain.run(30.0)
        bytes_per_second = (link.stats.bytes - before) / 30.0
        # Keepalives only: far below one 84-byte name per refresh.
        assert bytes_per_second < 50

    def test_dead_service_withdrawn_without_downstream_cascade(self):
        config = InrConfig(update_mode="reliable-delta",
                           refresh_interval=5.0, record_lifetime=15.0)
        domain = InsDomain(seed=702, config=config)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        c = domain.add_inr(address="inr-c")
        service = domain.add_service("[service=r[id=1]]", resolver=a,
                                     refresh_interval=5.0, lifetime=15.0)
        domain.run(2.0)
        assert c.name_count() == 1
        service.stop()
        # Origin expiry (one lifetime) plus instantaneous withdrawals:
        # well under the 2-lifetime soft-state cascade for hop 2.
        domain.run(20.0)
        assert a.name_count() == 0
        assert b.name_count() == 0
        assert c.name_count() == 0

    def test_metric_changes_flow_as_deltas(self, reliable_domain):
        domain, a, b = reliable_domain
        service = domain.add_service("[service=r[id=1]]", resolver=a,
                                     metric=5.0,
                                     refresh_interval=5.0, lifetime=15.0)
        domain.run(2.0)
        service.set_metric(1.0)
        domain.run(1.0)
        record = next(iter(b.trees["default"].lookup(parse("[service=r]"))))
        assert record.anycast_metric == 1.0

    def test_updates_survive_lossy_links(self, monkeypatch):
        """The channel's whole point: one lost datagram must not lose a
        delta forever (soft state would repair it at the next flood;
        reliable mode has no next flood)."""
        monkeypatch.setattr(discovery, "RELIABLE_RETRANSMIT_TIMEOUT", 0.5)
        config = InrConfig(update_mode="reliable-delta",
                           refresh_interval=5.0, record_lifetime=15.0)
        domain = InsDomain(seed=703, default_loss_rate=0.3, config=config)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        for i in range(10):
            domain.add_service(f"[service=r[id=n{i}]]", resolver=a,
                               refresh_interval=5.0, lifetime=15.0)
        domain.run(30.0)
        assert b.name_count() == 10

    def test_neighbor_crash_withdraws_downstream(self):
        config = InrConfig(update_mode="reliable-delta",
                           refresh_interval=5.0, record_lifetime=1e9)
        domain = InsDomain(seed=704, config=config)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        c = domain.add_inr(address="inr-c")
        domain.add_service("[service=r[id=1]]", resolver=a,
                           refresh_interval=5.0, lifetime=1e9)
        domain.run(2.0)
        # build a chain a - b - c? the default join gives a star on a;
        # force c's view through b by checking a's crash at c instead.
        assert c.name_count() == 1
        a.crash()
        domain.run(120.0)  # neighbor timeout, withdrawals
        assert b.name_count() == 0
        assert c.name_count() == 0
