"""Names are values: the first key seals a name-specifier.

One table: every way a canonical key gets taken × every depth of the
name. Once any of them has happened, ``add_pair`` / ``add_child``
raise :class:`SealedNameError` at that depth and the name
still says what it said; ``copy()`` is how it is edited, and an edit of
the copy shows nowhere else. Until the first key, building is free.
"""

import random

import pytest

from repro.client import Service
from repro.experiments import InsDomain, UniformWorkload
from repro.message import InsMessage
from repro.naming import (
    AVPair,
    NameSpecifier,
    NamingError,
    SealedNameError,
    decode_name,
    encode_name,
)
from repro.nametree import NameTree
from repro.netsim import Network, Simulator

from ..conftest import child, count, depth, make_record, node_counts, parse, random_query
from ..nametree.fig6_oracle import oracle_get_name

DEEP = "[a=1[b=2[c=3[d=4]]]][e=5]"
DEPTHS = [0, 1, 2, 3, 4]


def _built() -> NameSpecifier:
    """``DEEP``, built by hand: nothing has keyed it."""
    return NameSpecifier.from_dict(
        {"a": ("1", {"b": ("2", {"c": ("3", {"d": "4"})})}), "e": "5"}
    )


def _at(name: NameSpecifier, depth: int):
    """The name itself (depth 0) or its av-pair ``depth`` levels down."""
    target = name
    for attribute in "abcd"[:depth]:
        target = target.root(attribute) if target is name else child(target, attribute)
    return target


# ----------------------------------------------------------------------
# Every way a key gets taken: each is handed the unkeyed name and
# returns the name that way leaves sealed (the same object, or the one
# it hands back).
# ----------------------------------------------------------------------
def _same(act):
    def way(name):
        act(name)
        return name

    return way


def _grafted(name):
    tree, record = NameTree(), make_record()
    tree.insert(name, record)
    return tree, record


def _service(name):
    network = Network(Simulator())
    Service(network.add_node("host"), 7, name, resolver="inr-a")
    return name


def _decoded(name):
    return InsMessage.decode(InsMessage(destination=name).encode()).destination


def _got_name(name):
    tree, record = _grafted(name)
    return tree.get_name(record)


def _advertised(name):
    tree, _ = _grafted(parse(name.to_wire()))  # sized, so indexed
    return tree.advertised(DEEP)


def _name_of(name):
    inr = InsDomain(seed=1).add_inr(address="inr-a")
    return inr.dataplane.name_of(name.to_wire())


WAYS = {
    "canonical_key": _same(NameSpecifier.canonical_key),
    "hash": _same(hash),
    "==": _same(lambda name: name == NameSpecifier()),
    "parse": lambda name: parse(name.to_wire()),
    "wire_size": _same(NameSpecifier.wire_size),
    "is_concrete": _same(NameSpecifier.is_concrete),
    "NameTree.insert": _same(_grafted),
    "NameTree.lookup": _same(NameTree().lookup),
    "Service(...)": _service,
    "decoded InsMessage": _decoded,
    "get_name": _got_name,
    "advertised(text)": _advertised,
    "name_of(text)": _name_of,
}


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("way", WAYS)
def test_once_keyed_a_name_cannot_change_at_any_depth(way, depth):
    sealed = WAYS[way](_built())
    target = _at(sealed, depth)
    with pytest.raises(SealedNameError):
        (target.add_pair if depth == 0 else target.add_child)(AVPair("z", "9"))
    # Nothing was attached on the way to the refusal, and the name says
    # what it said: key, wire text and size.
    assert [pair.attribute for pair in sealed.walk()] == list("abcde")
    assert sealed.to_wire() == DEEP
    assert sealed.wire_size() == len(DEEP)
    assert sealed.canonical_key() == parse(DEEP).canonical_key()


def test_sealed_is_a_naming_error_and_says_how_to_edit():
    name = parse(DEEP)
    with pytest.raises(NamingError, match=r"copy\(\)"):
        name.add_pair(AVPair("z", "9"))
    with pytest.raises(NamingError, match=r"copy\(\)"):
        name.root("a").add_child(AVPair("z", "9"))


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("way", WAYS)
def test_a_copy_is_editable_at_every_depth_and_its_edit_shows_nowhere_else(
    way, depth
):
    sealed = WAYS[way](_built())
    tree, record = _grafted(sealed)
    nodes = node_counts(tree)
    twin = sealed.copy()
    target = _at(twin, depth)
    (target.add_pair if depth == 0 else target.add_child)(AVPair("z", "9"))
    assert "[z=9]" in twin.to_wire() and twin != sealed
    assert twin.wire_size() == len(DEEP) + len("[z=9]")
    assert sealed.to_wire() == DEEP and sealed.wire_size() == len(DEEP)
    assert tree.get_name(record) is sealed
    assert oracle_get_name(tree, record).to_wire() == DEEP
    assert node_counts(tree) == nodes


def test_a_pair_shared_by_two_names_is_sealed_by_keying_either():
    shared = AVPair("a", "1")
    leaf = shared.add_child(AVPair("b", "2"))
    one = NameSpecifier([shared])
    other = NameSpecifier([shared, AVPair("c", "3")])
    one.canonical_key()
    for pair in (shared, leaf):
        with pytest.raises(SealedNameError):
            pair.add_child(AVPair("z", "9"))
    # The other name has not been keyed itself: it can still grow beside
    # the shared pair, never under it — so the first name stays true.
    other.add_pair(AVPair("d", "4"))
    assert other == parse("[a=1[b=2]][c=3][d=4]")
    assert one.to_wire() == "[a=1[b=2]]" and one == parse("[a=1[b=2]]")
    with pytest.raises(SealedNameError):
        other.add_pair(AVPair("e", "5"))  # comparing it keyed it


def test_a_parser_error_is_reported_before_the_seal_is_met():
    """The parser keys a group at its ``]``, never earlier: children of
    an open group attach freely and a bad one is the error reported."""
    assert parse("[a=1[b=2][c=3[d=4]]]").to_wire() == "[a=1[b=2][c=3[d=4]]]"
    with pytest.raises(NamingError, match="already present") as raised:
        parse("[a=1[b=2][b=3]]")
    assert not isinstance(raised.value, SealedNameError)


def test_building_is_unrestricted_until_the_first_key():
    """What builds a name without reading it leaves it open."""
    tree, record = _grafted(parse(DEEP))
    workload = UniformWorkload(
        rng=random.Random(7), depth=3, attribute_range=3, value_range=3,
        attributes_per_level=2,
    )
    unkeyed = {
        "from_dict": _built(),
        "copy": parse(DEEP).copy(),
        "oracle_get_name": oracle_get_name(tree, record),
        "decode_name": decode_name(encode_name(parse(DEEP))),
        "random_name": workload.random_name(),
        "random_query": random_query(workload, wildcard_probability=0.5),
        "to_wire": _same(NameSpecifier.to_wire)(_built()),
        "walk, count, depth": _same(
            lambda name: (list(name.walk()), count(name), depth(name))
        )(_built()),
        "a non-concrete verdict": _same(NameSpecifier.is_concrete)(parse("[a=*]").copy()),
    }
    for how, name in unkeyed.items():
        before = count(name)
        name.add_pair(AVPair("zz", "9"))
        for pair in list(name.walk()):
            pair.add_child(AVPair("zzz", "9"))
        assert count(name) == 2 * (before + 1), how
        assert parse(name.to_wire()) == name, how


def test_every_name_a_running_domain_holds_is_sealed():
    """Four INRs, services, a round of updates, late-binding traffic with
    caching: whatever a record, a kept update, a service's advertisement,
    a resolver's text table or its packet cache points at refuses an edit."""
    domain = InsDomain(seed=20)
    inrs = [domain.add_inr(address=f"inr-{index}") for index in range(4)]
    services = [
        domain.add_service(f"[service=camera[id=c{index}]][room=51{index}]", resolver=inr)
        for index, inr in enumerate(inrs)
    ]
    client = domain.add_client(resolver=inrs[0])
    domain.run(2.5 * inrs[0].config.refresh_interval)
    services[1].send_anycast(
        parse("[service=viewer]"), b"picture", source=services[1].name,
        cache_lifetime=30,
    )
    client.send_anycast(parse("[service=camera][room=*]"), b"frame")
    domain.run(1.0)

    held = [service._advertisement.name for service in services]
    for inr in inrs:
        for tree in inr.trees.values():
            for record in tree.records():
                held.append(record.advertised_name)
                if record.kept_update is not None:
                    held.append(record.kept_update.name)
        held += inr.dataplane._names.values()
        held += [entry.name for entry in inr.cache._entries.values()]
    assert any(r.kept_update for r in inrs[0].trees["default"].records())
    assert any(inr.dataplane._names for inr in inrs)
    assert any(len(inr.cache) for inr in inrs)
    for name in held:
        with pytest.raises(SealedNameError):
            name.add_pair(AVPair("extra", "1"))
        for pair in name.walk():
            with pytest.raises(SealedNameError):
                pair.add_child(AVPair("extra", "1"))
