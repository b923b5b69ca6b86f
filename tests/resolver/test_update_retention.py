"""The soft-state path pays for a name once per graft, not once per
refresh: INRs hand on the name-specifier object they were given, sized
once, and an unchanged domain's refresh rounds rebuild nothing — no
name, no record, no route, no update — and compare nothing: the
service re-sends the advertisement it sent last, an INR the update it
kept, and a receiver recognises each as the message it already applied.

Counts only — no wall clock.
"""

import sys

import pytest

import repro.client.service as service_module
import repro.nametree.tree as tree_module
import repro.resolver.discovery as discovery_module
from repro.experiments import InsDomain
from repro.naming import NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree
from repro.resolver import InrConfig
from repro.resolver.protocol import Advertisement, NameUpdate

from ..conftest import parse, stores_to
from ..protocol_trace import ProtocolTrace


REFRESH = 5.0


def _domain(inrs, **config):
    domain = InsDomain(
        seed=1200,
        config=InrConfig(
            refresh_interval=REFRESH, record_lifetime=3 * REFRESH, **config
        ),
    )
    trace = ProtocolTrace(keep_payloads=True).attach(domain.network)
    return domain, trace, [domain.add_inr(address=a) for a in inrs]


def _service(domain, wire, resolver):
    return domain.add_service(
        wire, resolver=resolver, refresh_interval=REFRESH, lifetime=3 * REFRESH
    )


def _periodic_updates(trace, source, destination, since):
    return [
        update
        for event in trace.between(source, destination)
        if event.kind == "UpdateBatch"
        and event.time >= since
        and not event.payload.triggered
        for update in event.payload.updates
    ]


def _count_calls(monkeypatch, owner, method):
    calls = []
    real = getattr(owner, method)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, counted)
    return calls


def test_unchanged_domain_second_round_rebuilds_and_serializes_nothing(monkeypatch):
    domain, trace, (a, b, c) = _domain(["inr-a", "inr-b", "inr-c"])
    for index, inr in enumerate([a, b, c, a, b, c]):
        _service(domain, f"[service=e[id=n{index}][kind=k{index % 2}]][room=r{index}]", inr)
    domain.run(REFRESH + 1.0)  # every table holds every name
    assert [inr.name_count() for inr in (a, b, c)] == [6, 6, 6]

    serializations = _count_calls(monkeypatch, NameSpecifier, "to_wire")
    domain.run(REFRESH * 1.1)  # first counted round
    del serializations[:]
    names_before = sum(inr.stats.update_names_processed for inr in (a, b, c))
    sent_before = sum(inr.stats.periodic_updates_sent for inr in (a, b, c))
    ads_before = sum(inr.stats.advertisements_processed for inr in (a, b, c))
    domain.run(REFRESH * 1.1)  # second round: the one the claim is about

    # The round really happened: every INR sent its table to every
    # neighbor, every service refreshed, and the names were ingested.
    assert sum(inr.stats.periodic_updates_sent for inr in (a, b, c)) - sent_before >= 4
    assert sum(inr.stats.update_names_processed for inr in (a, b, c)) - names_before >= 12
    assert sum(inr.stats.advertisements_processed for inr in (a, b, c)) - ads_before >= 6
    assert serializations == []


def _count_constructions(monkeypatch, module, class_name):
    """Count what ``module`` constructs through its own binding of
    ``class_name`` (the class itself stays usable as a dict key, in
    ``isinstance`` tests and from every other module)."""
    built = []
    real = getattr(module, class_name)

    def counted(*args, **kwargs):
        instance = real(*args, **kwargs)
        built.append(instance)
        return instance

    monkeypatch.setattr(module, class_name, counted)
    return built


def test_unchanged_domain_second_round_builds_no_update(monkeypatch):
    domain, trace, (a, b, c) = _domain(["inr-a", "inr-b", "inr-c"])
    for index, inr in enumerate([a, b, c, a, b, c]):
        _service(domain, f"[service=e[id=n{index}]][room=r{index}]", inr)
    domain.run(REFRESH * 2.2)  # every table holds every name, refreshed once
    assert [inr.name_count() for inr in (a, b, c)] == [6, 6, 6]

    records = _count_constructions(monkeypatch, discovery_module, "NameRecord")
    # every Route is built by NameTree.route
    routes = _count_constructions(monkeypatch, tree_module, "Route")
    updates = _count_constructions(monkeypatch, discovery_module, "NameUpdate")
    advertisements = _count_constructions(monkeypatch, service_module, "Advertisement")
    endpoints = _count_constructions(monkeypatch, service_module, "Endpoint") + \
        _count_constructions(monkeypatch, discovery_module, "Endpoint")
    tables = _count_calls(monkeypatch, type(a.discovery), "_all_entries")
    batches_before = sum(inr.stats.periodic_updates_sent for inr in (a, b, c))
    names_before = sum(inr.stats.update_names_processed for inr in (a, b, c))
    ads_before = sum(inr.stats.advertisements_processed for inr in (a, b, c))
    start = domain.now
    with stores_to(NameRecord, "heard") as compared:
        domain.run(REFRESH * 1.1)

    # The round happened: every INR sent its table, every service refreshed.
    batches = sum(inr.stats.periodic_updates_sent for inr in (a, b, c)) - batches_before
    assert {id(d) for d in tables} == {id(inr.discovery) for inr in (a, b, c)}
    assert sum(inr.stats.update_names_processed for inr in (a, b, c)) - names_before >= 12
    assert sum(inr.stats.advertisements_processed for inr in (a, b, c)) - ads_before >= 6
    # A three-node overlay has an INR with two neighbors, so there are
    # more batches than tables — all of them made of kept updates, all
    # of them (and every advertisement) heard as themselves.
    assert batches > len(tables)
    assert updates == []
    assert compared == []
    assert (records, routes, advertisements, endpoints) == ([], [], [], [])
    # The batches' sizes were summed from the per-update sizes.
    sized = [
        event for event in trace.events
        if event.kind == "UpdateBatch" and event.time >= start
    ]
    assert sized and all(e.size == e.payload.wire_size() for e in sized)


def test_triggered_updates_are_built_once_for_all_neighbors(monkeypatch):
    domain, trace, (a, b, c) = _domain(["inr-a", "inr-b", "inr-c"])
    hub = max((a, b, c), key=lambda inr: len(inr.neighbors))
    assert len(hub.neighbors) == 2
    service = _service(domain, "[service=e[id=1]]", hub)
    domain.run(1.0)
    updates = _count_constructions(monkeypatch, discovery_module, "NameUpdate")
    start = domain.now
    service.set_metric(4.0)
    domain.run(1.0)
    sent = [
        event for event in trace.events
        if event.kind == "UpdateBatch" and event.time >= start
        and event.source == hub.address and event.payload.triggered
    ]
    # (the two receivers each build one more, to find nobody to tell)
    assert len(sent) == 2
    assert len([u for u in updates if u.route_metric == 0.0]) == 1
    assert sent[0].payload.updates[0] is sent[1].payload.updates[0]
    assert all(e.size == e.payload.wire_size() for e in sent)
    for inr in (a, b, c):
        record = inr.trees["default"].record_for(service.announcer)
        assert record.anycast_metric == 4.0


def test_duplicated_and_reordered_refreshes_leave_the_trees_as_they_were():
    """The advertisement a service re-sends and the name-specifiers in
    updates are shared by reference between sender, receiver and
    datagrams in flight; a copy delivered twice, or late, must find
    nothing to change."""
    domain, trace, (a, b) = _domain(["inr-a", "inr-b"])
    services = [
        _service(domain, f"[service=e[id=n{index}]]", inr)
        for index, inr in enumerate([a, b, a, b])
    ]
    domain.run(REFRESH * 2.2)

    def state(inr):
        tree = inr.trees["default"]
        return tree._epoch, {
            record.announcer: (
                tree.get_name(record), list(record.endpoints),
                record.anycast_metric, record.route,
            )
            for record in tree.records()
        }

    before = {inr.address: state(inr) for inr in (a, b)}
    triggered_before = sum(inr.stats.triggered_updates_sent for inr in (a, b))
    pairs = [("inr-a", "inr-b")] + [
        (service.address, service.resolver) for service in services
    ]
    for one, other in pairs:
        domain.network.configure_link(
            one, other, duplicate_rate=0.5, reorder_rate=0.4, reorder_delay=0.5
        )
    domain.run(REFRESH * 4.4)
    links = [domain.network.link(one, other) for one, other in pairs]
    assert sum(link.stats.duplicates for link in links) >= 4
    assert sum(link.stats.reorders for link in links) >= 4
    assert {inr.address: state(inr) for inr in (a, b)} == before
    assert sum(inr.stats.triggered_updates_sent for inr in (a, b)) == triggered_before
    for inr in (a, b):
        tree = inr.trees["default"]
        assert len(list(tree.records())) == len(tree)  # nothing held is dead


def test_updates_share_the_advertised_object_across_the_domain():
    domain, trace, (a, b, c) = _domain(["inr-a", "inr-b", "inr-c"])
    service = _service(domain, "[service=e[id=1]][room=510]", a)
    domain.run(1.0)
    start = domain.now
    domain.run(REFRESH * 2.2)
    for inr in (a, b, c):
        (tree,) = inr.trees.values()
        record = tree.record_for(service.announcer)
        assert tree.get_name(record) is service.name
    carried = [
        update.name
        for source in ("inr-a", "inr-b", "inr-c")
        for destination in ("inr-a", "inr-b", "inr-c")
        if source != destination
        for update in _periodic_updates(trace, source, destination, start)
    ]
    assert carried and all(name is service.name for name in carried)


def test_records_and_kept_updates_say_the_messages_endpoints_tuple():
    """A record holds the endpoints tuple of the message it was built
    from, and the update it keeps says that same tuple: no hop copies
    it, so a name's endpoints exist once across the domain."""
    domain, _, inrs = _domain(["inr-a", "inr-b", "inr-c"])
    for index, inr in enumerate(inrs):
        _service(domain, f"[service=e[id=n{index}]][room=r{index}]", inr)
    domain.run(REFRESH * 2.2)
    records = [
        record for inr in inrs for tree in inr.trees.values() for record in tree.records()
    ]
    assert len(records) == 9
    held = {}
    for record in records:
        assert held.setdefault(record.announcer, record.endpoints) is record.endpoints
        assert record.kept_update.endpoints is record.endpoints
    assert len(held) == 3


def test_a_record_grafted_from_a_message_owns_one_exact_tuple():
    """Grafted from an advertisement, a record owns itself and the tuple
    of its leaf attachments, fixed at graft; its endpoints are the
    message's. A list each (the endpoints copied, the attachments grown
    one by one) would weigh 48 bytes more on CPython 3.11 here."""
    advertisement = Advertisement(
        name=parse("[service=printer[id=a][kind=laser]][room=510[wing=n]]"),
        announcer=AnnouncerID.generate("10.0.0.1"),
        endpoints=(Endpoint("10.0.0.1", 9),),
        anycast_metric=0.0, lifetime=15.0, triggered=False,
    )
    tree = NameTree()
    assert discovery_module._graft(
        tree, None, advertisement, advertisement.endpoints, None, 0.0, 15.0
    )
    record = tree.record_for(advertisement.announcer)
    assert len(record.attachments) == 3
    weight = sum(
        sys.getsizeof(part)
        for part in (record, record.endpoints, record.attachments)
    )
    assert weight <= (
        sys.getsizeof(record)
        + sys.getsizeof(advertisement.endpoints)
        + sys.getsizeof((None,) * 3)
    )
    assert record.endpoints is advertisement.endpoints

def test_readvertising_reordered_siblings_keeps_first_order_on_the_wire():
    domain, trace, (a, b) = _domain(["inr-a", "inr-b"])
    first = "[service=e[id=1][kind=x]][room=510]"
    service = _service(domain, first, a)
    domain.run(1.0)
    size = parse(first).wire_size()
    service.rename(parse("[room=510][service=e[kind=x][id=1]]"))
    start = domain.now
    domain.run(REFRESH * 2.2)
    # The same name again is a refresh, not a rename: nothing triggered,
    assert [
        e for e in trace.between("inr-a", "inr-b")
        if e.kind == "UpdateBatch" and e.time >= start and e.payload.triggered
    ] == []
    # and the periodic rounds keep announcing the order grafted first.
    updates = _periodic_updates(trace, "inr-a", "inr-b", start)
    assert len(updates) >= 2
    assert {update.name.to_wire() for update in updates} == {first}
    assert {update.name.wire_size() for update in updates} == {size}
    client = domain.add_client(resolver=b)
    found = client.discover(parse("[service=e]"))
    domain.run(1.0)
    assert [name.to_wire() for name, _metric in found.value] == [first]


def test_a_rename_is_walked_for_wildcards_once_across_the_domain(monkeypatch):
    """``Service.rename`` and each resolver that grafts the new name
    must know it is concrete; the first to ask walks it, and the verdict
    travels with the (shared) name-specifier."""
    domain, trace, (a, b, c) = _domain(["inr-a", "inr-b", "inr-c"])
    service = _service(domain, "[service=e[id=1]]", a)
    domain.run(1.0)
    asked, walked = [], []
    real = NameSpecifier._operator_pair

    def counted(name):
        asked.append(name)
        if not name._concrete:
            walked.append(name)
        return real(name)

    monkeypatch.setattr(NameSpecifier, "_operator_pair", counted)
    renamed = parse("[service=e[id=2]][room=510]")
    service.rename(renamed)
    domain.run(1.0)
    for inr in (a, b, c):
        (tree,) = inr.trees.values()
        assert tree.get_name(tree.record_for(service.announcer)) is renamed
    assert len(asked) >= 4 and all(name is renamed for name in asked)
    assert walked == [renamed]


def test_lone_inr_does_not_build_a_table_for_nobody(monkeypatch):
    domain, trace, (a,) = _domain(["inr-a"])
    _service(domain, "[service=e[id=1]]", a)
    domain.run(1.0)
    built = _count_calls(monkeypatch, type(a.discovery), "_all_entries")
    domain.run(REFRESH * 3)
    assert built == []
    assert a.stats.periodic_updates_sent == 0


@pytest.mark.parametrize("rejected_by", ["local-authority", "worse-metric"])
def test_rejected_updates_build_no_record(monkeypatch, rejected_by):
    """The two refusing branches of the Bellman-Ford acceptance rule
    decide from the update alone; only an accepted update is turned into
    a NameRecord."""
    domain, trace, (a, b) = _domain(["inr-a", "inr-b"])
    service = _service(domain, "[service=e[id=1]]", a)
    domain.run(1.0)
    holder = a if rejected_by == "local-authority" else b
    tree = holder.trees["default"]
    existing = tree.record_for(service.announcer)
    update = NameUpdate(
        name=parse("[service=e[id=1]]"),
        announcer=service.announcer,
        endpoints=tuple(existing.endpoints),
        anycast_metric=0.0,
        route_metric=existing.route.metric + 1.0,
        lifetime=15.0,
        vspace="default",
    )
    built = _count_constructions(monkeypatch, discovery_module, "NameRecord")
    assert holder.discovery._apply_update(
        tree, update, "inr-elsewhere", 0.0, holder.now + 15.0
    ) is False
    assert built == []
    assert tree.record_for(service.announcer) is existing
