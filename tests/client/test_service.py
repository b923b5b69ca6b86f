"""Tests for the Service class: advertising, metrics, renaming."""

import pytest

from repro.experiments import InsDomain
from repro.naming import WildcardValueError

from ..conftest import parse
from ..protocol_trace import ProtocolTrace


class TestAdvertising:
    def test_advertises_on_attach(self):
        domain = InsDomain(seed=60)
        inr = domain.add_inr()
        service = domain.add_service("[service=x[id=1]]", resolver=inr)
        domain.run(0.5)
        assert inr.name_count() == 1
        assert service.advertisements_sent == 1

    def test_periodic_refreshes(self):
        domain = InsDomain(seed=61)
        inr = domain.add_inr()
        service = domain.add_service("[service=x[id=1]]", resolver=inr,
                                     refresh_interval=2.0)
        domain.run(10.5)
        assert service.advertisements_sent >= 5

    def test_wildcard_name_rejected_at_construction(self):
        domain = InsDomain(seed=62)
        inr = domain.add_inr()
        with pytest.raises(WildcardValueError):
            domain.add_service("[service=*]", resolver=inr)

    def test_announcer_id_is_stable_across_refreshes(self):
        domain = InsDomain(seed=63)
        inr = domain.add_inr()
        service = domain.add_service("[service=x[id=1]]", resolver=inr,
                                     refresh_interval=1.0)
        domain.run(5.0)
        assert inr.name_count() == 1  # refreshes, not duplicates

    def test_two_instances_on_one_node_coexist(self):
        """AnnouncerIDs differentiate same-node announcers (Section 2.2)."""
        domain = InsDomain(seed=64)
        inr = domain.add_inr()
        domain.add_service("[service=x[id=a]]", address="shared-host",
                           resolver=inr)
        domain.add_service("[service=x[id=b]]", address="shared-host",
                           resolver=inr)
        domain.run(1.0)
        assert inr.name_count() == 2


class TestRetainedAdvertisement:
    """A service re-sends the advertisement it sent last while it still
    says what the service would say now; anything that changes what it
    says goes out in a fresh one, on the next refresh at the latest."""

    REFRESH = 2.0

    def _steady(self, seed):
        domain = InsDomain(seed=seed)
        trace = ProtocolTrace(keep_payloads=True).attach(domain.network)
        inr = domain.add_inr()
        service = domain.add_service(
            "[service=x[id=1]]", resolver=inr, metric=5.0,
            refresh_interval=self.REFRESH, lifetime=3 * self.REFRESH,
        )
        domain.run(self.REFRESH * 3.3)  # attached, then three periodic refreshes
        assert len(self._sent(trace)) >= 3
        return domain, trace, inr, service

    @staticmethod
    def _sent(trace, since=0.0):
        return [
            event.payload for event in trace.of_kind("Advertisement")
            if event.time >= since
        ]

    @staticmethod
    def _record(inr, service):
        return inr.trees["default"].record_for(service.announcer)

    def test_unchanged_refreshes_resend_one_object(self):
        domain, trace, inr, service = self._steady(seed=160)
        first, *periodic = self._sent(trace)
        assert first.triggered and not any(ad.triggered for ad in periodic)
        assert len(periodic) >= 2
        assert all(ad is periodic[0] for ad in periodic)
        assert inr.name_count() == 1

    def test_silent_move_is_advertised_by_the_next_refresh(self):
        domain, trace, inr, service = self._steady(seed=161)
        domain.network.rename_node(service.address, "silent-move")
        domain.run(self.REFRESH * 1.1)
        assert self._record(inr, service).endpoints[0].host == "silent-move"

    def test_deferred_metric_goes_out_with_the_next_refresh(self):
        domain, trace, inr, service = self._steady(seed=162)
        start = domain.now
        service.set_metric(1.25, announce_now=False)
        assert self._sent(trace, start) == []
        domain.run(self.REFRESH * 1.1)
        assert self._record(inr, service).anycast_metric == 1.25
        assert not self._sent(trace, start)[0].triggered

    def test_deferred_rename_and_lifetime_go_out_with_the_next_refresh(self):
        domain, trace, inr, service = self._steady(seed=163)
        service.rename(parse("[service=x[id=2]]"), announce_now=False)
        service.lifetime = 5 * self.REFRESH
        domain.run(self.REFRESH * 1.1)
        record = self._record(inr, service)
        assert inr.trees["default"].get_name(record).to_wire() == "[service=x[id=2]]"
        assert record.expires_at > domain.now + 3 * self.REFRESH

    def test_triggered_announcement_is_not_mistaken_for_the_refresh(self):
        domain, trace, inr, service = self._steady(seed=164)
        start = domain.now
        service.set_metric(5.0)  # same value, announced now: still triggered
        domain.run(self.REFRESH * 1.1)
        flags = [ad.triggered for ad in self._sent(trace, start)]
        assert flags[0] is True and flags[1:] and not any(flags[1:])

    def test_stopped_service_advertises_again_after_restart(self):
        """Regression: ``stop()`` cancels the refresh timer, so the flag
        guarding its installation must go down with it — a service that
        was stopped, re-bound and started advertised once and then let
        its name expire one lifetime later."""
        domain, trace, inr, service = self._steady(seed=165)
        service.stop()
        domain.run(3 * self.REFRESH + 5.5)  # silent: the name expires, is swept
        assert inr.name_count() == 0
        service.node.bind(service.port, service)
        service.start()
        sent_before = service.advertisements_sent
        domain.run(5 * self.REFRESH)
        assert service.advertisements_sent >= sent_before + 4
        assert inr.name_count() == 1
        assert self._record(inr, service) is not None


class TestMetrics:
    def test_set_metric_announces_immediately(self):
        domain = InsDomain(seed=65)
        inr = domain.add_inr()
        service = domain.add_service("[service=x[id=1]]", resolver=inr,
                                     metric=5.0)
        domain.run(0.5)
        service.set_metric(1.25)
        domain.run(0.5)
        record = next(iter(inr.trees["default"].lookup(parse("[service=x]"))))
        assert record.anycast_metric == 1.25

    def test_set_metric_can_defer(self):
        domain = InsDomain(seed=66)
        inr = domain.add_inr()
        service = domain.add_service("[service=x[id=1]]", resolver=inr,
                                     metric=5.0, refresh_interval=4.0)
        domain.run(0.5)
        service.set_metric(1.25, announce_now=False)
        domain.run(0.5)
        record = next(iter(inr.trees["default"].lookup(parse("[service=x]"))))
        assert record.anycast_metric == 5.0  # old value until next refresh
        domain.run(5.0)
        assert record.anycast_metric == 1.25


class TestRename:
    def test_rename_announces_new_name(self):
        domain = InsDomain(seed=67)
        inr = domain.add_inr()
        service = domain.add_service("[service=x[id=1]][room=510]", resolver=inr)
        domain.run(0.5)
        service.rename(parse("[service=x[id=1]][room=520]"))
        domain.run(0.5)
        tree = inr.trees["default"]
        assert not tree.lookup(parse("[room=510]"))
        assert len(tree.lookup(parse("[room=520]"))) == 1

    def test_rename_rejects_wildcards(self):
        domain = InsDomain(seed=68)
        inr = domain.add_inr()
        service = domain.add_service("[service=x[id=1]]", resolver=inr)
        with pytest.raises(WildcardValueError):
            service.rename(parse("[service=*]"))


class TestReply:
    def test_reply_to_inverts_names(self):
        domain = InsDomain(seed=69)
        inr = domain.add_inr()
        server = domain.add_service("[service=server[id=s]]", resolver=inr)
        caller = domain.add_service("[service=caller[id=c]]", resolver=inr)
        received = []
        caller.on_message(lambda m, s: received.append(m))
        server.on_message(lambda m, s: server.reply_to(m, b"pong"))
        domain.run(1.0)
        caller.send_anycast(parse("[service=server]"), b"ping",
                            source=caller.name)
        domain.run(1.0)
        assert [m.data for m in received] == [b"pong"]
        assert received[0].destination == caller.name

    def test_reply_to_anonymous_request_is_dropped(self):
        domain = InsDomain(seed=70)
        inr = domain.add_inr()
        server = domain.add_service("[service=server[id=s]]", resolver=inr)
        server.on_message(lambda m, s: server.reply_to(m, b"pong"))
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        client.send_anycast(parse("[service=server]"), b"ping")  # no source
        domain.run(1.0)  # must not raise or loop
