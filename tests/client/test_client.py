"""Tests for the client API: attachment, queries, sends."""

import pytest

from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.netsim import Network, Simulator
from repro.client import InsClient

from ..conftest import parse


class TestConstruction:
    def test_requires_resolver_or_dsr(self):
        sim = Simulator()
        network = Network(sim)
        node = network.add_node("host")
        with pytest.raises(ValueError):
            InsClient(node, 7000)


class TestAttachment:
    def test_explicit_resolver_attaches_immediately(self):
        domain = InsDomain(seed=50)
        inr = domain.add_inr()
        client = domain.add_client(resolver=inr)
        assert client.attached.done
        assert client.resolver == inr.address

    def test_dsr_attachment_picks_nearest_inr(self):
        domain = InsDomain(seed=51)
        far = domain.add_inr(address="inr-far")
        near = domain.add_inr(address="inr-near")
        domain.network.configure_link("client-host", "inr-far", latency=0.05)
        domain.network.configure_link("client-host", "inr-near", latency=0.001)
        client = domain.add_client(address="client-host")
        domain.run(2.0)
        assert client.resolver == "inr-near"

    def test_attachment_waits_for_first_inr(self):
        """A client started before any INR keeps retrying."""
        domain = InsDomain(seed=52)
        client = domain.add_client(address="early-bird")
        domain.run(3.0)
        assert not client.attached.done
        domain.add_inr()
        domain.run(3.0)
        assert client.attached.done

    def test_reattach_after_resolver_death(self):
        domain = InsDomain(seed=53)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        client = domain.add_client(resolver=b)
        b.crash()
        client.reattach()
        domain.run(2.0)
        assert client.resolver == "inr-a"

    def test_periodic_reselection_tracks_new_inrs(self):
        domain = InsDomain(seed=54)
        far = domain.add_inr(address="inr-far")
        domain.network.configure_link("client-host", "inr-far", latency=0.05)
        client = domain.add_client(address="client-host",
                                   reselect_interval=5.0)
        domain.run(2.0)
        assert client.resolver == "inr-far"
        domain.network.configure_link("client-host", "inr-near", latency=0.001)
        domain.add_inr(address="inr-near")
        domain.run(10.0)
        assert client.resolver == "inr-near"


class TestOperationsRequireAttachment:
    def test_unattached_operations_raise(self):
        domain = InsDomain(seed=55)
        client = domain.add_client()  # no INR exists yet
        with pytest.raises(RuntimeError):
            client.resolve_early(parse("[a=b]"))
        with pytest.raises(RuntimeError):
            client.send_anycast(parse("[a=b]"), b"")


class TestMessaging:
    @pytest.fixture
    def wired(self):
        domain = InsDomain(seed=56)
        inr = domain.add_inr()
        service = domain.add_service("[service=echo[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr)
        inbox = []
        service.on_message(lambda m, s: inbox.append(m))
        domain.run(1.0)
        return domain, client, service, inbox

    def test_anycast_reaches_service(self, wired):
        domain, client, service, inbox = wired
        client.send_anycast(parse("[service=echo]"), b"hi")
        domain.run(1.0)
        assert [m.data for m in inbox] == [b"hi"]

    def test_multicast_flag_set(self, wired):
        from repro.message import Delivery

        domain, client, service, inbox = wired
        client.send_multicast(parse("[service=echo]"), b"hi")
        domain.run(1.0)
        assert inbox[0].delivery is Delivery.MULTICAST

    def test_source_name_defaults_to_empty(self, wired):
        domain, client, service, inbox = wired
        client.send_anycast(parse("[service=echo]"), b"hi")
        domain.run(1.0)
        assert inbox[0].source.is_empty

    def test_messages_without_handler_are_discarded(self):
        domain = InsDomain(seed=57)
        inr = domain.add_inr()
        service = domain.add_service("[service=mute[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        client.send_anycast(parse("[service=mute]"), b"x")
        domain.run(1.0)  # must not raise


class TestResolveBest:
    def test_best_is_least_metric(self):
        domain = InsDomain(seed=58)
        inr = domain.add_inr()
        domain.add_service("[service=b[id=slow]]", resolver=inr, metric=9.0)
        best_service = domain.add_service("[service=b[id=fast]]",
                                          resolver=inr, metric=1.0)
        client = domain.add_client(resolver=inr)
        domain.run(1.0)
        # "the client may select an end-node with the least metric":
        # early binding answers best first
        reply = client.resolve_early(parse("[service=b]"))
        domain.run(1.0)
        endpoint, metric = reply.value[0]
        assert metric == 1.0
        assert endpoint.host == best_service.address
