"""Firing a handler in place must be indistinguishable from scheduling it.

``Network._deliver`` hands a zero-cost handler on an idle CPU to
``Simulator.fire`` when ``Simulator.nothing_else_due()`` says the heap
would pop it next anyway. The oracle here is the behaviour that rule
replaced: ``nothing_else_due`` overridden to answer False, so every
handler takes its trip through the heap. Seeded small domains are run
under both and must agree on every firing — ``(virtual time, sequence
number, callback)`` — and on everything the firings leave behind.

The override exists only in this file; ``src/`` has one delivery rule
and no switch. Tier-1 runs a few seeds of each driving mode;
``check_seeds`` is what the CI ``test`` job calls with a wide range.
"""

import random
from contextlib import contextmanager
from dataclasses import fields

from repro.experiments import InsDomain
from repro.netsim import Process, Simulator
from repro.resolver import CostModel

from ..conftest import parse

#: INR operations that cost nothing: its handlers become in-place
#: candidates as well (clients, services and the DSR always are).
FREE = CostModel(**{
    f.name: 0.0 for f in fields(CostModel) if f.name != "model_delivery_artifact"
})

ROOMS = ("510", "511", "512")
KINDS = ("camera", "printer")
QUERIES = (
    "[service=camera]", "[service=printer]", "[room=510]", "[room=511]",
    "[service=camera][room=512]", "[service=nobody]",
)


@contextmanager
def delivery_rule(always_schedule: bool, tally: dict):
    """Run the shipped rule (counting its verdicts into ``tally``) or
    the oracle that answers "something else is due" every time."""
    shipped = Simulator.nothing_else_due

    def counted(sim):
        verdict = shipped(sim)
        tally["in_place" if verdict else "scheduled"] += 1
        return verdict

    Simulator.nothing_else_due = (lambda sim: False) if always_schedule else counted
    try:
        yield
    finally:
        Simulator.nothing_else_due = shipped


class Probe(Process):
    """A zero-cost receiver that is also the target of raw timers."""

    def __init__(self, node, port):
        super().__init__(node, port)
        self.log = []

    def handle_message(self, payload, source):
        self.log.append((self.now, "datagram", payload, source))

    def timer(self, label):
        self.log.append((self.now, "timer", label))


def _label(callback) -> str:
    return getattr(callback, "__qualname__", None) or type(callback).__name__


def _collisions(domain, probe, shape):
    """At one instant: datagrams from three sources reach ``probe``
    together, with a timer queued ahead of them all, a timer between the
    first two, and cancelled entries both at that instant and later —
    every way something else can be (or look) due."""
    sim, network = domain.sim, domain.network
    size = shape.choice((40, 100, 700))

    def burst():
        arrival = sim.now + network.link("src-1", "sink").transfer_delay(size)
        sim.at(arrival, probe.timer, "ahead of every arrival")
        network.send("src-1", "sink", probe.port, "one", size)
        sim.at(arrival, probe.timer, "between the arrivals")
        network.send("src-2", "sink", probe.port, "two", size)
        sim.at(arrival, probe.timer, "cancelled, same instant").cancel()
        network.send("src-3", "sink", probe.port, "three", size)
        sim.at(arrival + 0.004, probe.timer, "cancelled, later").cancel()
        # alone at its instant but for the tombstone above
        network.send("src-1", "sink", probe.port, "four", size + 900)

    return burst


def run_scenario(seed: int, mode: str, always_schedule: bool, tally: dict) -> dict:
    """One seeded domain, driven to the end; everything observable."""
    with delivery_rule(always_schedule, tally):
        shape = random.Random(seed)
        domain = InsDomain(seed=seed)
        sim, network = domain.sim, domain.network
        firings = []
        sim.event_hook = lambda event: firings.append(
            (event.time, event.sequence, _label(event.callback))
        )

        inrs = [
            domain.add_inr(
                address=f"inr-{i}", costs=FREE if shape.random() < 0.4 else None
            )
            for i in range(shape.randint(1, 3))
        ]
        inboxes = []
        for i in range(shape.randint(2, 5)):
            resolver = shape.choice(inrs)
            service = domain.add_service(
                f"[service={shape.choice(KINDS)}[id={i}]][room={shape.choice(ROOMS)}]",
                # now and then on its resolver's own node: a zero-cost
                # receiver behind a CPU that is busy with resolver work
                address=resolver.address if shape.random() < 0.3 else None,
                resolver=resolver, metric=float(shape.randint(0, 3)),
            )
            inbox = []
            service.on_message(
                lambda message, source, inbox=inbox: inbox.append(
                    (sim.now, message.data, source)
                )
            )
            inboxes.append(inbox)
        clients = [
            domain.add_client(resolver=shape.choice(inrs))
            for _ in range(shape.randint(2, 3))
        ]
        for client in clients:
            if shape.random() < 0.6:
                network.configure_link(
                    client.address, client.resolver or inrs[0].address,
                    loss_rate=shape.choice((0.0, 0.1, 0.3)),
                    duplicate_rate=shape.choice((0.0, 0.3)),
                    reorder_rate=shape.choice((0.0, 0.3)),
                )
        for name in ("sink", "src-1", "src-2", "src-3"):
            network.add_node(name)
        probe = Probe(network.node("sink"), 7)
        domain.run(2.0)

        replies = []

        def issue(kind, client, text):
            name = parse(text)
            if kind == "resolve":
                replies.append(client.resolve_early(name))
            elif kind == "discover":
                replies.append(client.discover(name))
            elif client.resolver is None:
                pass  # mid-failover on a lossy link: a late-binding send would raise
            elif kind == "anycast":
                client.send_anycast(name, b"a" * shape.randint(0, 300))
            else:
                client.send_multicast(name, b"m" * shape.randint(0, 300))

        start = sim.now
        for _ in range(shape.randint(10, 30)):
            # a millisecond grid, so that ops of several clients collide
            at = start + shape.randint(0, 1500) / 1000.0
            kind = shape.choice(("resolve", "resolve", "discover", "anycast", "multicast"))
            sim.at(at, issue, kind, shape.choice(clients), shape.choice(QUERIES))
        for _ in range(2):
            sim.at(
                start + shape.randint(0, 1500) / 1000.0,
                _collisions(domain, probe, shape),
            )

        end = start + 12.0  # past every retry of a lossy link
        marks = []
        if mode == "run":
            sim.run(until=end)
        elif mode == "step":
            # one event at a time (plus what it fires in place) while any
            # request is open, then the rest in batches
            while sim.now < start + 1.5 or not all(r.settled for r in replies):
                if not sim.step() or sim.now >= end:
                    break
                marks.append(sim.now)
            marks = sorted(set(marks))
            sim.run(until=end)
        else:
            budget = shape.randint(1, 7)
            while sim.now < end:
                sim.run(until=end, max_events=budget)
                marks.append(sim.events_processed)
            sim.run(until=end)  # a budget can run out on the last instant

        return {
            "firings": firings,
            "marks": marks,
            "events_processed": sim.events_processed,
            "pending_events": sim.pending_events,
            "now": sim.now,
            "next_random": sim.rng.random(),
            "cpus": {
                node.address: (
                    node.cpu.jobs_executed, node.cpu.busy_seconds, node.cpu.free_at
                )
                for node in network.nodes
            },
            "links": {pair: link.stats.snapshot() for pair, link in network.links},
            "delivered": (network.delivered, network.undeliverable),
            "inrs": [inr.stats.snapshot() for inr in domain.inrs],
            "clients": [client.stats.snapshot() for client in clients],
            "replies": [
                repr(reply.value) if reply.done else type(reply.error).__name__
                for reply in replies
            ],
            "inboxes": inboxes,
            "probe": probe.log,
        }


MODES = ("run", "step", "budget")


def check_seeds(seeds) -> dict:
    """Compare both rules on every seed; returns how often the shipped
    rule fired in place and how often it found something else due."""
    tally = {"in_place": 0, "scheduled": 0}
    for seed in seeds:
        mode = MODES[seed % len(MODES)]
        shipped = run_scenario(seed, mode, always_schedule=False, tally=tally)
        oracle = run_scenario(seed, mode, always_schedule=True, tally=tally)
        for key in oracle:
            assert shipped[key] == oracle[key], (
                f"seed {seed} ({mode}): {key} differs from the always-schedule oracle"
            )
    return tally


def test_reduced_seed_set_fires_as_the_always_schedule_oracle_does():
    tally = check_seeds(range(30))
    # Worth running only while both verdicts are being exercised.
    assert tally["in_place"] > 1000
    assert tally["scheduled"] > 300
