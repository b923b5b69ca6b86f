"""A round that says nothing new must be indistinguishable from one
that says everything again.

Three shortcuts make soft-state maintenance cheap while nothing
changes: an INR re-sends the ``NameUpdate`` it kept for a record
(``NameRecord.kept_update``), a receiver recognises a message object it
has already applied to a record and only moves the deadline
(``NameTree.rehear``), and a sweep returns at once while no deadline
can have passed (``NameTree.expire``). Seeded small domains are
driven through a generated history — metric changes, renames and
re-spellings, node mobility (announced and not), endpoints appearing,
changing order and left to the datagram's source, an owner swapping in
an edited copy of its name without saying so, services stopping and
coming back, loss, duplication, late delivery, partitions, overlay RTTs
drifting, an INR crash and restart, in both update modes, while
clients resolve, discover and send anycast — as shipped
and under ``tests/literal.py``'s ``literal_domain()``, whose arms
include the behaviour these shortcuts replaced: every round builds
every update afresh, every delivered ``Advertisement`` / ``NameUpdate``
is a copy (so identity never matches), and the bound on the deadlines
is pinned at minus infinity (so every sweep scans). Both must agree on
every datagram, every counter, every table, every answer.

``src/`` has one behaviour and no switch. Tier-1 runs 30 seeds;
``check_seeds`` is what the CI ``test`` job calls with a wide range.
"""

import random
from contextlib import contextmanager
from typing import Tuple

import pytest

from repro.client import Service
from repro.client.mobility import MobilityManager
from repro.experiments import InsDomain
from repro.naming import AVPair
from repro.nametree import Endpoint, NameRecord, NameTree
from repro.resolver import InrConfig, inr as inr_module
from repro.resolver.discovery import NameDiscovery
from repro.resolver.ports import INR_PORT
from repro.resolver.protocol import Advertisement

from ..conftest import parse, stores_to
from ..literal import ARMS, domain_state, literal_domain, unfired
from ..protocol_trace import ProtocolTrace

REFRESH = 5.0
LIFETIME = 3 * REFRESH
HISTORY = 60.0

KINDS = ("camera", "printer")
ROOMS = ("510", "511")
QUERIES = (
    "[service=camera]", "[service=printer]", "[room=510]", "[room=511]",
    "[service=camera][room=511]", "[service=*]",
)

VERDICTS = ("re-sent", "rebuilt", "recognised", "compared", "skipped", "scanned")


@contextmanager
def verdicts_counted(tally: dict):
    """Count each shipped shortcut's verdicts into ``tally``."""
    shipped = (
        NameDiscovery.table, NameTree.rehear, NameTree.refresh, NameTree.expire
    )
    table, rehear, refresh, expire = shipped

    def counted_table(discovery, tree):
        for record in tree.records():
            kept = record.kept_update is not None
            tally["re-sent" if kept else "rebuilt"] += 1
        return table(discovery, tree)

    def counted_rehear(tree, *args):
        heard = rehear(tree, *args)
        tally["recognised"] += heard
        return heard

    def counted_expire(tree, now):
        due = now >= tree._earliest_expiry
        tally["scanned" if due else "skipped"] += 1
        return expire(tree, now)

    with stores_to(NameRecord, "heard") as compared:
        def counted_refresh(tree, *args):
            # refresh's comparing path, and only it, stores ``heard``
            # (a graft clears it, outside refresh)
            before = len(compared)
            verdict = refresh(tree, *args)
            tally["compared"] += len(compared) - before
            return verdict

        NameDiscovery.table = counted_table
        NameTree.rehear = counted_rehear
        NameTree.refresh = counted_refresh
        NameTree.expire = counted_expire
        try:
            yield
        finally:
            (
                NameDiscovery.table, NameTree.rehear, NameTree.refresh,
                NameTree.expire,
            ) = shipped


class MultiHomed(Service):
    """A service that can advertise further endpoints beside its own,
    in either order, or none at all (the resolver then falls back on
    the datagram's source) — and, like ``Service``, re-sends the
    advertisement it sent last while that still says everything."""

    others: Tuple[Endpoint, ...] = ()
    own_first = True
    anonymous = False

    def advertise(self, triggered: bool = False) -> None:
        if self.resolver is None:
            return
        own = (Endpoint(self.address, self.port, self.transport),)
        endpoints = own + self.others if self.own_first else self.others + own
        if self.anonymous:
            endpoints = ()
        last = self._advertisement
        if (
            last is None or last.name is not self.name
            or last.endpoints != endpoints
            or last.anycast_metric != self.metric
            or last.triggered != triggered
        ):
            last = self._advertisement = Advertisement(
                name=self.name, announcer=self.announcer, endpoints=endpoints,
                anycast_metric=self.metric, lifetime=self.lifetime,
                triggered=triggered,
            )
        self.send(self.resolver, INR_PORT, last)
        self.advertisements_sent += 1


def _name_text(shape, index: int) -> str:
    return (
        f"[service={shape.choice(KINDS)}[id=n{index}][unit=u{shape.randint(0, 2)}]]"
        f"[room={shape.choice(ROOMS)}]"
    )


def _respelt(name) -> str:
    """The same name with every sibling list reversed: an equal key
    under another wire text."""

    def spell(pair):
        return f"[{pair.attribute}={pair.value}" + "".join(
            spell(child) for child in reversed(pair.children)
        ) + "]"

    return "".join(spell(root) for root in reversed(name._roots))


def run_history(seed: int) -> dict:
    """One seeded domain and history, driven to the end; everything
    observable."""
    shape = random.Random(seed)
    config = InrConfig(
        refresh_interval=REFRESH,
        record_lifetime=LIFETIME,
        expiry_sweep_interval=2.0,
        neighbor_timeout=3.2 * REFRESH,
        heartbeat_interval=4.0,
        update_mode=("soft-state", "reliable-delta")[seed % 2],
        enable_relaxation=shape.random() < 0.5,
    )
    domain = InsDomain(seed=seed, config=config)
    sim, network = domain.sim, domain.network
    trace = ProtocolTrace(capacity=10**6).attach(network)
    inrs = [domain.add_inr(address=f"inr-{i}") for i in range(shape.randint(3, 4))]
    services = [
        domain.add_service(
            _name_text(shape, i), address=f"svc-{i}", resolver=shape.choice(inrs),
            metric=float(shape.randint(0, 3)), lifetime=LIFETIME,
            refresh_interval=REFRESH, service_class=MultiHomed,
        )
        for i in range(shape.randint(6, 10))
    ]
    clients = [domain.add_client(resolver=inr) for inr in inrs[:2]]
    domain.run(REFRESH + 2.0)  # every table filled, one round behind us

    replies = []
    serial = iter(range(10**6))

    def later(delay, action, *args):
        sim.at(sim.now + delay, action, *args)

    def ask(client, text):
        name = parse(text)
        kind = shape.random()
        if kind < 0.6:
            replies.append(client.resolve_early(name))
        elif kind < 0.85:
            replies.append(client.discover(name))
        elif client.resolver is not None:
            # late binding: the data plane's name sections and forwards
            client.send_anycast(name, b"q")

    def set_metric(service):
        service.set_metric(
            float(shape.randint(0, 5)), announce_now=shape.random() < 0.6
        )

    def rename(service):
        if shape.random() < 0.4:
            text = _respelt(service.name)  # another spelling, the same name
        else:
            text = _name_text(shape, next(serial) + 100)
        service.rename(parse(text), announce_now=shape.random() < 0.7)

    def move(service):
        address = f"roam-{next(serial)}"
        if shape.random() < 0.5:
            MobilityManager(service.node).migrate(address)
        else:
            # nobody tells the service: its next refresh is the
            # advertisement it sent last, from somewhere else
            network.rename_node(service.address, address)

    def second_home(service):
        service.others = (
            () if service.others and shape.random() < 0.3
            else (Endpoint(f"alt-{next(serial)}", 7),)
        )
        if shape.random() < 0.5:
            service.advertise(triggered=True)

    def reorder(service):
        service.own_first = not service.own_first
        if shape.random() < 0.5:
            service.advertise(triggered=True)

    def anonymous(service):
        # No endpoint of its own: the advertisement object survives a
        # move, and only its datagram's source says where it is now.
        service.anonymous = not service.anonymous

    def edit(service):
        # The owner swaps in an edited copy of the name it advertised
        # and says nothing: its next refresh is the first to carry it.
        edited = service.name.copy()
        edited.root("service").add_child(AVPair(f"edit{next(serial)}", "x"))
        service.rename(edited, announce_now=False)

    def stop(service):
        if service.node.process_on(service.port) is service:
            service.stop()
            if shape.random() < 0.6:
                later(shape.uniform(1.0, 2.5 * LIFETIME / 2), start, service)

    def start(service):
        if service.node.process_on(service.port) is None:
            service.node.bind(service.port, service)
            service.start()

    def lossy(service):
        a, b = (
            (service.address, service.resolver or inrs[0].address)
            if shape.random() < 0.5
            else tuple(inr.address for inr in shape.sample(inrs, 2))
        )
        network.configure_link(
            a, b, loss_rate=shape.choice((0.0, 0.2, 0.5)),
            duplicate_rate=shape.choice((0.0, 0.3)),
            # late enough for an older message to land on a newer one
            reorder_rate=shape.choice((0.0, 0.4)), reorder_delay=1.5 * REFRESH,
            latency=shape.choice((0.002, 0.002, 0.02)),
        )

    def partition(service):
        sides = (
            ([service.address], [service.resolver or inrs[0].address])
            if shape.random() < 0.6
            else tuple([inr.address] for inr in shape.sample(inrs, 2))
        )
        network.partition(*sides)
        # sometimes inside the lifetime, sometimes past it
        later(shape.choice((0.5 * LIFETIME, 1.3 * LIFETIME)), network.heal, *sides)

    def crash(service):
        inr = shape.choice(inrs)
        if not inr.terminated:
            inr.crash()
            later(shape.uniform(2.0, 1.5 * LIFETIME), restart, inr)

    def restart(inr):
        if inr.terminated:
            inr.restart()

    actions = (
        set_metric, set_metric, rename, rename, move, move, second_home,
        second_home, reorder, reorder, anonymous, edit, stop, lossy, lossy,
        partition, crash,
    )
    start_time = sim.now
    for _ in range(shape.randint(25, 45)):
        sim.at(
            start_time + shape.uniform(0.0, HISTORY),
            shape.choice(actions), shape.choice(services),
        )
    for _ in range(12):
        sim.at(
            start_time + shape.uniform(0.0, HISTORY + LIFETIME), ask,
            shape.choice(clients), shape.choice(QUERIES),
        )
    sim.run(until=start_time + HISTORY + 2.5 * LIFETIME)

    assert trace.dropped == 0
    names = {service.announcer: index for index, service in enumerate(services)}
    return {
        "datagrams": [
            (e.time, e.source, e.destination, e.kind, e.size) for e in trace.events
        ],
        "tables": [
            {
                (vspace, names[record.announcer]): (
                    tree.get_name(record).to_wire(), tuple(record.endpoints),
                    record.anycast_metric, record.route, record.expires_at,
                )
                for vspace, tree in inr.trees.items()
                for record in tree.records()
            }
            for inr in domain.inrs
        ],
        "epochs": [
            [tree._epoch for tree in inr.trees.values()] for inr in domain.inrs
        ],
        "sent": [service.advertisements_sent for service in services],
        "replies": [
            repr(reply.value) if reply.done else type(reply.error).__name__
            for reply in replies
        ],
        **domain_state(domain, clients),
    }


def check_seeds(seeds) -> dict:
    """Compare the shipped system with ``literal_domain()`` on every
    seed; returns how often each shortcut took each of its verdicts,
    and every literal arm's firing tally."""
    tally = dict.fromkeys(VERDICTS + ARMS, 0)
    with pytest.MonkeyPatch.context() as patch:
        # Relaxation probes often enough to fire in a short history.
        patch.setattr(inr_module, "RELAXATION_INTERVAL", 7.0)
        for seed in seeds:
            with verdicts_counted(tally):
                shipped = run_history(seed)
            with literal_domain(tally):
                literal = run_history(seed)
            for key in literal:
                assert shipped[key] == literal[key], (
                    f"seed {seed}: {key} differs from the literal domain"
                )
    return tally


def test_reduced_seed_set_behaves_as_rounds_that_rebuild_and_compare_everything():
    tally = check_seeds(range(30))
    assert not unfired(tally), tally
    # Worth running only while both verdicts of each shortcut are
    # exercised: a kept update re-sent / rebuilt, a message recognised /
    # compared field by field, a sweep skipped / scanned.
    assert tally["re-sent"] > 2500 and tally["rebuilt"] > 1000, tally
    assert tally["recognised"] > 2500 and tally["compared"] > 2000, tally
    assert tally["skipped"] > 2000 and tally["scanned"] > 300, tally
