"""Late binding reads each name once per hop: an INR parses the two
name sections of a packet and, from then on, every key read (name-tree
memo, packet cache) and the forward's re-encode are cache hits on what
the parser left behind.

And a name it has read before, zero times: a section byte-equal to a
name one of its trees retains, or to a text it parsed earlier in this
incarnation, is recognised (``DataPlane.name_of``), and a canonical
frame is forwarded by patching a copy — no parse, no encode. The second
half of this file counts that, and checks what bounds it and what makes
it forget.

Counts only — no wall clock. This is the regression guard for the
one-pass parser's keyed-and-sized output that a hosted CI runner can
hold; the timing claim lives in EXPERIMENTS.md.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.naming.parser as parser_module
from repro.experiments import InsDomain
from repro.message import DEFAULT_HOP_LIMIT, Binding, InsMessage
from repro.naming import AVPair, NameSpecifier, NamingError
from repro.nametree import NameTree
from repro.resolver import DataPacket
from repro.resolver.dataplane import NAME_TABLE_CAPACITY, NAME_TABLE_MAX_TEXT
from repro.resolver.ports import INR_PORT

from ..conftest import forge_packet, make_record, parse

ADVERTISED = "[service=camera[entity=transmitter][id=c1]][room=510]"


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
        self.encodes = []
        real_parse = parser_module.parse_name_specifier
        real_key = AVPair.canonical_key
        real_to_wire = NameSpecifier.to_wire
        real_encode = InsMessage.encode

        def encode_counted(message):
            self.encodes.append(message)
            return real_encode(message)

        monkeypatch.setattr(InsMessage, "encode", encode_counted)

        def parse_counted(text):
            self.parses.append(text)
            return real_parse(text)

        def key_counted(pair):
            if pair._key_cache is None:
                self.key_walks.append(pair)
            return real_key(pair)

        def to_wire_counted(name, pretty=False):
            walked = pretty or name.cached_wire() is None
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


# ----------------------------------------------------------------------
# A name read before is not read again
# ----------------------------------------------------------------------
def test_a_second_identical_anycast_parses_nothing_and_encodes_nothing(
    monkeypatch,
):
    domain, inrs, client, inbox = _chain()
    destination = "[service=camera[entity=transmitter]][room=510]"
    source = "[service=viewer[id=v1]]"
    client.send_anycast(parse(destination), b"one", source=parse(source))
    domain.run(1.0)
    remembered = [inr.dataplane.names_remembered for inr in inrs]
    client.send_anycast(parse(destination), b"two", source=parse(source))
    counters = _Counters(monkeypatch)  # the client has encoded; INRs have not run
    domain.run(1.0)

    assert [m.data for m in inbox] == [b"one", b"two"]
    assert counters.parses == []
    assert counters.encodes == []
    assert counters.key_walks == [] and counters.wire_walks == []
    # Neither text is an advertised name: each INR's own table knew both.
    assert [inr.dataplane.names_remembered for inr in inrs] == [
        n + 2 for n in remembered
    ]
    assert inbox[1].destination.to_wire() == destination
    assert inbox[1].source.to_wire() == source
    assert inbox[1].hop_limit == DEFAULT_HOP_LIMIT - 2


def test_a_destination_byte_equal_to_an_advertised_name_is_never_parsed(
    monkeypatch,
):
    domain, inrs, client, inbox = _chain()
    recognised = [inr.dataplane.names_advertised for inr in inrs]
    client.send_anycast(parse(ADVERTISED), b"frame")
    counters = _Counters(monkeypatch)
    domain.run(1.0)

    assert [m.data for m in inbox] == [b"frame"]
    assert counters.parses == [] and counters.encodes == []
    assert [inr.dataplane.names_advertised for inr in inrs] == [
        n + 1 for n in recognised
    ]
    assert all(inr.dataplane.names_parsed == 0 for inr in inrs)
    # What was delivered is the tree's own object: a sealed value.
    record = next(iter(inrs[2].trees["default"].records()))
    assert inbox[0].destination is record.advertised_name
    assert inbox[0].source.is_empty


def test_a_name_renamed_or_expired_goes_with_its_record():
    domain, (a, b, c), client, inbox = _chain()
    service = domain.services[0]
    trees = [inr.trees["default"] for inr in (a, b, c)]
    assert all(tree.advertised(ADVERTISED) is service.name for tree in trees)

    # Renamed: the new text is recognised everywhere, the old nowhere.
    renamed = "[service=camera[entity=transmitter][id=c2]][room=511]"
    service.rename(parse(renamed))
    domain.run(2.0)
    for tree in trees:
        assert tree.advertised(renamed) is service.name
        assert tree.advertised(ADVERTISED) is None
        assert list(tree._by_text) == [renamed]
    lost = a.stats.drops_no_route
    client.send_anycast(parse(ADVERTISED), b"nobody home")
    domain.run(1.0)
    assert a.stats.drops_no_route == lost + 1

    # Expired (hop by hop, a lifetime each): the index empties with the tree.
    service.stop()
    domain.run(4 * a.config.record_lifetime)
    for tree in trees:
        assert len(tree) == 0 and tree._by_text == {}


_TEXTS = [f"[service=s{i}[id=x]]" for i in range(4)]


@given(st.lists(
    st.tuples(
        st.sampled_from(["insert", "share", "remove", "expire"]),
        st.integers(0, 5), st.integers(0, 3),
    ),
    max_size=40,
))
@settings(max_examples=150, deadline=None)
def test_the_index_never_outgrows_the_tree_and_never_serves_a_stale_name(script):
    """insert covers graft, refresh (same name again) and rename (another
    name for a known announcer); ``share`` grafts one object for
    several announcers, ``insert`` equal texts as distinct objects."""
    tree = NameTree()
    records = [make_record(host=f"h{i}", expires_at=100.0 + i) for i in range(6)]
    shared = [parse(text) for text in _TEXTS]
    for step, (action, who, which) in enumerate(script):
        if action in ("insert", "share"):
            name = shared[which] if action == "share" else parse(_TEXTS[which])
            tree.insert(name, records[who])
        elif action == "remove":
            tree.remove_announcer(records[who].announcer)
        else:
            tree.expire(100.0 + who)
        assert len(tree._by_text) <= len(tree), step
        live = {id(record.advertised_name) for record in tree.records()}
        for text in _TEXTS:
            name = tree.advertised(text)
            if name is not None:
                assert name.to_wire() == text and id(name) in live
    for record in list(tree.records()):
        tree.remove(record)
    assert tree._by_text == {}


def test_a_name_grafted_unsized_is_simply_not_indexed(tree):
    name = NameSpecifier.from_dict({"service": "camera"})
    tree.insert(name, make_record())
    assert len(tree) == 1 and tree._by_text == {}
    assert tree.advertised("[service=camera]") is None


# ----------------------------------------------------------------------
# The table of texts no tree retains
# ----------------------------------------------------------------------
def test_the_text_table_is_bounded_in_entries_and_in_text_length():
    domain = InsDomain(seed=1301)
    inr = domain.add_inr(address="inr-a")
    dataplane = inr.dataplane
    texts = [f"[query=n{i}]" for i in range(10 * NAME_TABLE_CAPACITY)]
    for text in texts:
        assert dataplane.name_of(text).to_wire() == text
        assert len(dataplane._names) <= NAME_TABLE_CAPACITY
    # Oldest out: exactly the newest CAPACITY texts are left, and a hit
    # is the very object parsed the first time.
    assert list(dataplane._names) == texts[-NAME_TABLE_CAPACITY:]
    assert dataplane.name_of(texts[-1]) is dataplane._names[texts[-1]]
    assert dataplane.names_parsed == len(texts)
    assert dataplane.names_remembered == 1

    fits = "[a=" + "v" * (NAME_TABLE_MAX_TEXT - 4) + "]"
    too_long = "[a=" + "v" * (NAME_TABLE_MAX_TEXT - 3) + "]"
    assert (len(fits), len(too_long)) == (NAME_TABLE_MAX_TEXT, NAME_TABLE_MAX_TEXT + 1)
    for text in (too_long, "[ query = spaced ]", "[query]", " "):
        dataplane.name_of(text)
        dataplane.name_of(text)
        assert text not in dataplane._names
    dataplane.name_of(fits)
    assert fits in dataplane._names
    # The empty section is a fresh empty name every time, never kept.
    assert dataplane.name_of("").is_empty
    assert dataplane.name_of("") is not dataplane.name_of("")
    assert "" not in dataplane._names


def test_a_text_that_does_not_parse_is_never_remembered():
    domain = InsDomain(seed=1302)
    inr = domain.add_inr(address="inr-a")
    for text in ("[[", "[a=b", "[a=1][a=2]", "[a=b]]"):
        for _ in range(2):
            with pytest.raises(NamingError):
                inr.dataplane.name_of(text)
    assert inr.dataplane._names == {}
    before = inr.stats.drops_malformed
    for _ in range(2):
        inr.handle_message(DataPacket(raw=forge_packet("", "[[")), "stranger")
    assert inr.stats.drops_malformed == before + 2


def test_the_text_table_does_not_survive_a_restart():
    domain = InsDomain(seed=1304)
    inr = domain.add_inr(address="inr-a")
    inr.dataplane.name_of("[query=q]")
    old = inr.dataplane
    assert old._names
    domain.crash_inr(inr)
    domain.restart_inr(inr)
    assert inr.dataplane is not old
    assert inr.dataplane._names == {}
    assert inr.dataplane.names_parsed == 0


# ----------------------------------------------------------------------
# In-band replies read their names, they do not copy them
# ----------------------------------------------------------------------
def test_a_reply_is_built_from_the_names_at_hand_without_copying(monkeypatch):
    domain = InsDomain(seed=1305)
    inr = domain.add_inr(address="inr-a")
    viewer = "[service=viewer[id=v1]]"
    asker = domain.add_service(viewer, resolver=inr)
    publisher = domain.add_service(ADVERTISED, resolver=inr)
    domain.run(2.0)
    arrived = []
    real_send = domain.network.send

    def send(source, destination, port, payload, size_bytes):
        if isinstance(payload, DataPacket) and destination == asker.address:
            arrived.append(payload.raw)
        real_send(source, destination, port, payload, size_bytes)

    domain.network.send = send
    publisher.send_anycast(
        parse(viewer), b"picture", source=parse(ADVERTISED), cache_lifetime=30
    )
    domain.run(1.0)
    assert arrived and inr.cache is not None and len(inr.cache) == 1
    del arrived[:]

    copies = []
    real_copy = NameSpecifier.copy
    monkeypatch.setattr(
        NameSpecifier, "copy", lambda name: copies.append(name) or real_copy(name)
    )
    # Answered from the packet cache ...
    asker.send_anycast(
        parse(ADVERTISED), b"", source=parse(viewer), accept_cached=True
    )
    domain.run(1.0)
    assert inr.stats.packets_answered_from_cache == 1
    # ... and early binding asked for over the data path.
    asker.send_message(InsMessage(
        destination=parse(ADVERTISED), source=parse(viewer), binding=Binding.EARLY,
    ))
    domain.run(1.0)
    assert copies == []
    cached, bindings = (InsMessage.decode(raw) for raw in arrived)
    assert cached.data == b"picture"
    assert b'"bindings"' in bindings.data
    for raw, reply in zip(arrived, (cached, bindings)):
        assert reply.destination.to_wire() == viewer
        assert reply.source.to_wire() == ADVERTISED
        assert raw == InsMessage(
            destination=parse(viewer), source=parse(ADVERTISED), data=reply.data
        ).encode()
