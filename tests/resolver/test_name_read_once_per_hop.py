"""Late binding reads each name once per hop: an INR parses the two
name sections of a packet and, from then on, every key read (name-tree
memo, packet cache) and the forward's re-encode are cache hits on what
the parser left behind.

Counts only — no wall clock. This is the regression guard for the
one-pass parser's keyed-and-sized output that a hosted CI runner can
hold; the timing claim lives in EXPERIMENTS.md.
"""

import repro.naming.parser as parser_module
from repro.experiments import InsDomain
from repro.message import DEFAULT_HOP_LIMIT
from repro.naming import AVPair, NameSpecifier
from repro.resolver import DataPacket
from repro.resolver.ports import INR_PORT

from ..conftest import forge_packet, parse


def _chain():
    """inr-a — inr-b — inr-c, a client on a, the only match on c."""
    domain = InsDomain(seed=1300)
    a = domain.add_inr(address="inr-a")
    b = domain.add_inr(address="inr-b")
    domain.network.configure_link("inr-b", "inr-c", latency=0.001)
    domain.network.configure_link("inr-a", "inr-c", latency=0.05)
    c = domain.add_inr(address="inr-c")
    assert c.neighbors.parent.address == "inr-b"
    assert sorted(n.address for n in b.neighbors) == ["inr-a", "inr-c"]
    service = domain.add_service(
        "[service=camera[entity=transmitter][id=c1]][room=510]", resolver=c
    )
    client = domain.add_client(resolver=a)
    domain.run(2.0)
    inbox = []
    service.on_message(lambda message, source: inbox.append(message))
    return domain, (a, b, c), client, inbox


class _Counters:
    """Patched-in counts of the three ways a name gets read in full."""

    def __init__(self, monkeypatch):
        self.parses, self.key_walks, self.wire_walks = [], [], []
        real_parse = parser_module.parse_name_specifier
        real_key = AVPair.canonical_key
        real_to_wire = NameSpecifier.to_wire

        def parse_counted(text):
            self.parses.append(text)
            return real_parse(text)

        def key_counted(pair):
            if pair._key_cache is None:
                self.key_walks.append(pair)
            return real_key(pair)

        def to_wire_counted(name, pretty=False):
            cached = name._wire_cache
            walked = pretty or cached is None or cached[0] is not name._key_cache
            text = real_to_wire(name, pretty)
            if walked:
                self.wire_walks.append(text)
            return text

        monkeypatch.setattr(parser_module, "parse_name_specifier", parse_counted)
        monkeypatch.setattr(AVPair, "canonical_key", key_counted)
        monkeypatch.setattr(NameSpecifier, "to_wire", to_wire_counted)


def test_one_anycast_over_three_inrs_parses_twice_per_hop_and_walks_nothing(
    monkeypatch,
):
    domain, (a, b, c), client, inbox = _chain()
    destination = "[service=camera[entity=transmitter]][room=510]"
    source = "[service=viewer[id=v1]]"
    before = [inr.stats.packets_forwarded for inr in (a, b, c)]
    lookups = [inr.stats.lookups for inr in (a, b, c)]
    client.send_anycast(parse(destination), b"frame", source=parse(source))
    counters = _Counters(monkeypatch)  # the client has encoded; INRs have not run
    domain.run(1.0)

    # It crossed all three: a and b forwarded, c looked it up and delivered.
    assert [m.data for m in inbox] == [b"frame"]
    assert [inr.stats.packets_forwarded for inr in (a, b, c)] == [
        before[0] + 1, before[1] + 1, before[2]
    ]
    assert [inr.stats.lookups for inr in (a, b, c)] == [n + 1 for n in lookups]
    assert c.stats.packets_delivered_locally == 1

    # Both sections, once each, at each of the three INRs (the endpoint
    # is handed c's already-decoded packet object by the simulator).
    assert counters.parses == [destination, source] * 3
    assert counters.key_walks == []
    assert counters.wire_walks == []
    assert inbox[0].destination.to_wire() == destination
    assert inbox[0].hop_limit == DEFAULT_HOP_LIMIT - 2


def test_a_respaced_packet_is_walked_once_for_the_forward_and_never_for_keys(
    monkeypatch,
):
    """A sender that spaces its names out costs each forwarding INR one
    token walk (the re-encode has no text to reuse) and still no key
    walk; the next hop receives compact sections."""
    domain, (a, b, c), client, inbox = _chain()
    spaced_destination = "[ service = camera ] [room=510]"
    raw = forge_packet("[service=viewer[id=v1]]", spaced_destination, b"frame")
    counters = _Counters(monkeypatch)
    domain.network.send(
        client.address, "inr-a", INR_PORT, DataPacket(raw=raw), len(raw)
    )
    domain.run(1.0)
    assert [m.data for m in inbox] == [b"frame"]
    assert len(counters.parses) == 6
    assert counters.parses[0] == spaced_destination
    assert counters.parses[2] == "[service=camera][room=510]"
    assert counters.key_walks == []
    assert counters.wire_walks == ["[service=camera][room=510]"]
