"""Tests for the forwarding agent: late binding (Sections 2, 2.3)."""

import pytest

from repro.experiments import InsDomain
from repro.message import Binding, Delivery, InsMessage
from repro.nametree import AnnouncerID
from repro.naming import NameSpecifier
from repro.resolver import DataPacket
from repro.resolver.ports import INR_PORT

from ..conftest import forge_packet, parse


@pytest.fixture
def triangle():
    """Three INRs, a service on each of two of them, a client."""
    domain = InsDomain(seed=9)
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    c = domain.add_inr(address="inr-c")
    cheap = domain.add_service("[service=p[id=cheap]][room=1]",
                               resolver=b, metric=1.0)
    costly = domain.add_service("[service=p[id=costly]][room=1]",
                                resolver=c, metric=9.0)
    client = domain.add_client(resolver=a)
    domain.run(2.0)
    inbox = []
    cheap.on_message(lambda m, s: inbox.append(("cheap", m)))
    costly.on_message(lambda m, s: inbox.append(("costly", m)))
    return domain, (a, b, c), (cheap, costly), client, inbox


class TestAnycast:
    def test_delivers_to_least_metric(self, triangle):
        domain, inrs, services, client, inbox = triangle
        client.send_anycast(parse("[service=p][room=1]"), b"job")
        domain.run(1.0)
        assert [who for who, _ in inbox] == ["cheap"]

    def test_message_arrives_unchanged(self, triangle):
        """Late binding never alters names or data (Section 2.3)."""
        domain, inrs, services, client, inbox = triangle
        source = parse("[service=p-client[id=me]]")
        client.send_anycast(parse("[service=p][room=1]"), b"payload-123",
                            source=source)
        domain.run(1.0)
        _, message = inbox[0]
        assert message.data == b"payload-123"
        assert message.destination == parse("[service=p][room=1]")
        assert message.source == source

    def test_one_survivor_formats_no_announcer_string(self, triangle, monkeypatch):
        """Survivors are ordered on their announcer's string only when
        there are two or more: a lone one is routed unformatted."""
        domain, inrs, services, client, inbox = triangle
        formatted = []
        original = AnnouncerID.__str__

        def counting(announcer):
            formatted.append(announcer)
            return original(announcer)

        monkeypatch.setattr(AnnouncerID, "__str__", counting)
        client.send_anycast(parse("[service=p[id=cheap]]"), b"job")
        domain.run(1.0)
        assert [who for who, _ in inbox] == ["cheap"]
        assert formatted == []
        # Two survivors at the first hop are still ordered by the string.
        client.send_anycast(parse("[service=p][room=1]"), b"job")
        domain.run(1.0)
        assert [who for who, _ in inbox] == ["cheap", "cheap"]
        assert len(formatted) >= 2

    def test_metric_flip_rebinds(self, triangle):
        domain, inrs, (cheap, costly), client, inbox = triangle
        cheap.set_metric(50.0)
        domain.run(1.0)
        client.send_anycast(parse("[service=p][room=1]"), b"job")
        domain.run(1.0)
        assert [who for who, _ in inbox] == ["costly"]

    def test_no_match_drops(self, triangle):
        domain, (a, b, c), services, client, inbox = triangle
        dropped_before = a.stats.packets_dropped
        client.send_anycast(parse("[service=nonexistent]"), b"x")
        domain.run(1.0)
        assert a.stats.packets_dropped == dropped_before + 1
        assert inbox == []

    def test_local_service_served_locally(self, triangle):
        """A destination attached to the client's own INR is tunnelled
        straight to the endpoint; no overlay forwarding."""
        domain, (a, b, c), services, client, inbox = triangle
        local = domain.add_service("[service=p[id=local]][room=1]",
                                   resolver=a, metric=0.1)
        local_inbox = []
        local.on_message(lambda m, s: local_inbox.append(m))
        domain.run(1.0)
        forwarded_before = a.stats.packets_forwarded
        client.send_anycast(parse("[service=p][room=1]"), b"x")
        domain.run(1.0)
        assert len(local_inbox) == 1
        assert a.stats.packets_forwarded == forwarded_before


class TestMulticast:
    def test_reaches_all_matches_exactly_once(self, triangle):
        domain, inrs, services, client, inbox = triangle
        client.send_multicast(parse("[service=p][room=1]"), b"all")
        domain.run(1.0)
        assert sorted(who for who, _ in inbox) == ["cheap", "costly"]

    def test_group_by_wildcard_id(self, triangle):
        domain, inrs, services, client, inbox = triangle
        client.send_multicast(parse("[service=p[id=*]][room=1]"), b"all")
        domain.run(1.0)
        assert sorted(who for who, _ in inbox) == ["cheap", "costly"]

    def test_single_member_group(self, triangle):
        domain, inrs, services, client, inbox = triangle
        client.send_multicast(parse("[service=p[id=cheap]]"), b"one")
        domain.run(1.0)
        assert [who for who, _ in inbox] == ["cheap"]

    def test_no_duplicates_under_shared_next_hop(self):
        """Two matching services behind the same next-hop INR get one
        copy each, not one per record at the branching resolver."""
        domain = InsDomain(seed=10)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        one = domain.add_service("[service=s[id=1]]", resolver=b)
        two = domain.add_service("[service=s[id=2]]", resolver=b)
        client = domain.add_client(resolver=a)
        inbox = []
        one.on_message(lambda m, s: inbox.append("one"))
        two.on_message(lambda m, s: inbox.append("two"))
        domain.run(2.0)
        client.send_multicast(parse("[service=s]"), b"x")
        domain.run(1.0)
        assert sorted(inbox) == ["one", "two"]

    def test_blank_destination_is_dropped_not_sent_to_everyone(self, triangle):
        """A destination section of whitespace parses to the empty name,
        which matches every record: the resolver must drop the packet as
        malformed, not multicast it to the whole vspace."""
        domain, (a, b, c), services, client, inbox = triangle
        forged = forge_packet("", " \n\t  ", b"boo", delivery=Delivery.MULTICAST)
        malformed_before = a.stats.drops_malformed
        domain.network.send(client.address, a.address, INR_PORT,
                            DataPacket(raw=forged), len(forged))
        domain.run(1.0)
        assert inbox == []
        assert a.stats.drops_malformed == malformed_before + 1


class TestHopLimit:
    def test_exhausted_hop_limit_drops(self, triangle):
        domain, (a, b, c), services, client, inbox = triangle
        message = InsMessage(
            destination=parse("[service=p][room=1]"),
            data=b"x",
            binding=Binding.LATE,
            delivery=Delivery.ANYCAST,
            hop_limit=0,
        )
        domain.network.send(client.address, a.address, INR_PORT,
                            DataPacket(raw=message.encode()), 100)
        domain.run(1.0)
        assert inbox == []

    def test_hop_limit_decrements_along_path(self, triangle):
        domain, inrs, services, client, inbox = triangle
        message = InsMessage(
            destination=parse("[service=p][room=1]"),
            data=b"x",
            hop_limit=8,
        )
        domain.network.send(client.address, inrs[0].address, INR_PORT,
                            DataPacket(raw=message.encode()), 100)
        domain.run(1.0)
        _, received = inbox[0]
        assert received.hop_limit == 7  # one overlay hop a -> b


class TestEmptyDestination:
    def test_undecodable_packet_is_ignored(self, triangle):
        domain, (a, b, c), services, client, inbox = triangle
        domain.network.send(client.address, a.address, INR_PORT,
                            DataPacket(raw=b"garbage"), 7)
        # must not crash the resolver
        domain.run(1.0)
        client.send_anycast(parse("[service=p][room=1]"), b"still-works")
        domain.run(1.0)
        assert len(inbox) == 1


class TestEarlyBindingFlagOnDataPath:
    """Figure 10's B flag made functional: a B=EARLY data message gets
    the bindings answered back to its source name instead of payload
    forwarding."""

    def test_bindings_returned_to_the_source_name(self, triangle):
        import json

        domain, (a, b, c), services, client, inbox = triangle
        # an addressable requester (a service with its own name)
        requester = domain.add_service("[service=asker[id=q]]", resolver=a)
        answers = []
        requester.on_message(lambda m, s: answers.append(m))
        domain.run(1.0)
        message = InsMessage(
            destination=parse("[service=p][room=1]"),
            source=parse("[service=asker[id=q]]"),
            binding=Binding.EARLY,
        )
        domain.network.send(requester.address, a.address, INR_PORT,
                            DataPacket(raw=message.encode()), 200)
        domain.run(1.0)
        assert len(answers) == 1
        payload = json.loads(answers[0].data.decode())
        metrics = [b["metric"] for b in payload["bindings"]]
        assert metrics == sorted(metrics) == [1.0, 9.0]
        # no payload was forwarded to the printers
        assert inbox == []

    def test_early_binding_without_source_name_is_dropped(self, triangle):
        domain, (a, b, c), services, client, inbox = triangle
        dropped_before = a.stats.packets_dropped
        message = InsMessage(
            destination=parse("[service=p][room=1]"),
            binding=Binding.EARLY,
        )
        domain.network.send(client.address, a.address, INR_PORT,
                            DataPacket(raw=message.encode()), 100)
        domain.run(1.0)
        assert a.stats.packets_dropped == dropped_before + 1
        assert inbox == []
