"""Firing a handler in place must be indistinguishable from scheduling it.

``Network._deliver`` hands each handler's CPU job to
``Cpu.execute_last``, which moves the clock to the job's completion and
``Simulator.fire``s the handler there when
``Simulator.nothing_due_by(finish)`` says the heap would pop it next
anyway. The oracle here is the behaviour that rule replaced:
``nothing_due_by`` overridden to answer False, so every handler takes
its trip through the heap. Seeded small domains are run under both and
must agree on every firing — ``(virtual time, sequence number,
callback)`` — and on everything the firings leave behind.

The override exists only in this file; ``src/`` has one delivery rule
and no switch. Tier-1 runs a few seeds of each driving mode;
``check_seeds`` is what the CI ``test`` job calls with a wide range.
"""

import random
from contextlib import contextmanager
from dataclasses import fields

from repro.experiments import InsDomain
from repro.netsim import CALLBACK, SEQUENCE, TIME, Process, Simulator, cancel
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
    """Run the shipped rule (counting its verdicts into ``tally``: in
    place at this instant, in place at a later completion, scheduled)
    or the oracle that answers "something is due" every time."""
    shipped = Simulator.nothing_due_by

    def counted(sim, time):
        verdict = shipped(sim, time)
        if not verdict:
            tally["scheduled"] += 1
        else:
            tally["free" if time == sim.now else "costed"] += 1
        return verdict

    Simulator.nothing_due_by = (
        (lambda sim, time: False) if always_schedule else counted
    )
    try:
        yield
    finally:
        Simulator.nothing_due_by = shipped


class Probe(Process):
    """A receiver of ``cost`` CPU seconds per datagram that is also the
    target of raw timers."""

    def __init__(self, node, port, cost):
        super().__init__(node, port)
        self.cost = cost
        self.log = []

    def processing_cost(self, payload, size_bytes):
        return self.cost

    def handle_message(self, payload, source):
        self.log.append((self.now, "datagram", payload, source))

    def timer(self, label):
        self.log.append((self.now, "timer", label))


def _label(callback) -> str:
    return getattr(callback, "__qualname__", None) or type(callback).__name__


def _collisions(domain, probe, shape, splits):
    """At one instant: datagrams from three sources reach ``probe``
    together, with a timer queued ahead of them all, a timer between the
    first two, and cancelled entries both at that instant and later —
    every way something else can be (or look) due. Then a fourth
    datagram, alone; now and then a timer is queued for the very
    instant its CPU job would complete. Appends to ``splits`` an instant
    between the fourth arrival and that completion."""
    sim, network = domain.sim, domain.network
    size = shape.choice((40, 100, 700))
    tied = shape.random() < 0.5

    def tie(alone, job):
        # known once the first three jobs are queued on the CPU
        finish = max(alone, probe.node.cpu.free_at) + job
        sim.at(finish, probe.timer, "at the fourth completion")

    def burst():
        link = network.link("src-1", "sink")
        arrival = sim.now + link.transfer_delay(size)
        sim.at(arrival, probe.timer, "ahead of every arrival")
        network.send("src-1", "sink", probe.port, "one", size)
        sim.at(arrival, probe.timer, "between the arrivals")
        network.send("src-2", "sink", probe.port, "two", size)
        cancel(sim.at(arrival, probe.timer, "cancelled, same instant"))
        network.send("src-3", "sink", probe.port, "three", size)
        cancel(sim.at(arrival + 0.004, probe.timer, "cancelled, later"))
        # alone at its instant but for the tombstone above
        network.send("src-1", "sink", probe.port, "four", size + 900)
        alone = sim.now + link.transfer_delay(size + 900)
        job = probe.cost / probe.node.cpu.speed
        if job:
            splits.append(alone + job / 2)  # its job starts then or later
            if tied:
                sim.at((arrival + alone) / 2, tie, alone, job)

    return burst


def run_scenario(seed: int, mode: str, always_schedule: bool, tally: dict) -> dict:
    """One seeded domain, driven to the end; everything observable."""
    with delivery_rule(always_schedule, tally):
        shape = random.Random(seed)
        domain = InsDomain(seed=seed)
        sim, network = domain.sim, domain.network
        firings = []
        sim.event_hook = lambda event: firings.append(
            (event[TIME], event[SEQUENCE], _label(event[CALLBACK]))
        )

        inrs = [
            domain.add_inr(
                address=f"inr-{i}", costs=FREE if shape.random() < 0.4 else None,
                cpu_speed=shape.choice((1.0, 1.0, 0.5, 3.0)),
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
        network.add_node("sink", cpu_speed=shape.choice((1.0, 0.5, 3.0)))
        for name in ("src-1", "src-2", "src-3"):
            network.add_node(name)
        probe = Probe(network.node("sink"), 7, shape.choice((0.0, 0.001, 0.003)))
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
        splits = []
        bursts = sorted(start + shape.randint(0, 1500) / 1000.0 for _ in range(2))
        for at in bursts:
            sim.at(at, _collisions(domain, probe, shape, splits))

        end = start + 12.0  # past every retry of a lossy link
        marks = []
        if mode == "run":
            # each run() stops at a burst, then between an arrival and
            # its job's completion — where the clock and the count must
            # stop too — then goes on to the end
            for at in bursts:
                sim.run(until=at)
                for split in sorted(splits):
                    sim.run(until=split)
                    marks.append((sim.now, sim.events_processed))
                del splits[:]
            sim.run(until=end)
        elif mode == "step":
            # one event at a time (plus what it fires in place) while any
            # request is open, then the rest in batches. A step that
            # fires a job in place ends at its completion: what a caller
            # sees at a step's end is each reply settling, at the
            # instant it settled.
            settled = 0
            while sim.now < start + 1.5 or settled < len(replies):
                if not sim.step() or sim.now >= end:
                    break
                now_settled = sum(reply.settled for reply in replies)
                if now_settled != settled:
                    settled = now_settled
                    marks.append((settled, sim.now))
            sim.run(until=end)
        else:
            # each run() gets its own budget, and often spends it on an
            # arrival whose handler must then wait for the next one
            while sim.now < end:
                sim.run(until=end, max_events=shape.randint(1, 7))
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
    rule fired a handler in place at its arrival (``free``), in place at
    its job's later completion (``costed``), and how often it found
    something due first (``scheduled``)."""
    tally = {"free": 0, "costed": 0, "scheduled": 0}
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
    # Worth running only while every verdict is being exercised.
    assert tally["free"] > 1000
    assert tally["costed"] > 300
    assert tally["scheduled"] > 300
