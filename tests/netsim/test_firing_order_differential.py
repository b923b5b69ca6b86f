"""Firing a handler in place must be indistinguishable from scheduling it.

``Network._deliver`` hands each handler's CPU job to
``Cpu.execute_last``, and so does each anycast data-plane hop (the
lookup's job and the delivery or forwarding job it routes to): the clock
moves to the job's completion and the callback fires there when
``Simulator.nothing_due_by(finish)`` says the queue would pop it next
anyway. Seeded small domains are run as shipped and under
``tests/literal.py``'s ``literal_domain()`` — among its arms the
behaviour that rule replaced, ``nothing_due_by`` answering False so
every handler takes its trip through the queue — and must agree on
every firing — ``(virtual time, sequence number, callback)`` — on
everything the firings leave behind, and on ``now``,
``events_processed`` and ``pending_events`` after every ``run()``.
Among the arms is also the single heap the two-tier event queue
replaced; the shipped domains run on :class:`CountedSimulator`, which
counts what the queue's far tier did, so the same run shows that tier
at work.

``src/`` has one delivery rule and no switch. Tier-1 runs a few seeds
of each driving mode; ``check_seeds`` is what the CI ``test`` job calls
with a wide range.
"""

import random
import sys
from contextlib import contextmanager
from dataclasses import fields

import pytest

import repro.experiments.domain as domain_module
from repro.experiments import InsDomain
from repro.netsim import CALLBACK, SEQUENCE, TIME, Process, Simulator, cancel
from repro.resolver import CostModel

from ..conftest import parse
from ..literal import ARMS, HeapSimulator, domain_state, literal_domain, unfired

#: INR operations that cost nothing: its handlers become in-place
#: candidates as well (clients, services and the DSR always are).
FREE = CostModel(**{f.name: 0.0 for f in fields(CostModel)})

ROOMS = ("510", "511", "512")
KINDS = ("camera", "printer")
QUERIES = (
    "[service=camera]", "[service=printer]", "[room=510]", "[room=511]",
    "[service=camera][room=512]", "[service=nobody]",
)

VERDICTS = ("free", "costed", "scheduled", "delivery", "data-plane")

#: What the shipped domains' two-tier queue did: events pushed past the
#: horizon, and buckets moved onto the heap.
FAR_TIER = ("parked", "refills")


class CountedSimulator(Simulator):
    """The shipped queue, counting what its far tier did."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.parked = self.refills = 0

    def at(self, time, callback, *args):
        if time >= self._horizon:
            self.parked += 1
        return super().at(time, callback, *args)

    def _refill(self) -> bool:
        refilled = super()._refill()
        self.refills += refilled
        return refilled


def queue_state(sim) -> tuple:
    return (sim.now, sim.events_processed, sim.pending_events)


@contextmanager
def runs_logged(runs: list):
    """Append ``queue_state`` to ``runs`` after every ``run()`` of
    either queue. (Not after every ``step``: under the always-schedule
    arm a step that would fire a job in place ends at the arrival, so
    the literal domain takes more steps to make the same firings.)"""

    def logged(run):
        def logged_run(sim, until=None, max_events=None):
            run(sim, until, max_events)
            runs.append(queue_state(sim))
        return logged_run

    with pytest.MonkeyPatch.context() as patch:
        for queue in (Simulator, HeapSimulator):
            patch.setattr(queue, "run", logged(queue.run))
        yield


@contextmanager
def on_counted_queue(tally: dict):
    """Build every domain on a :class:`CountedSimulator` and add its
    far-tier counts to ``tally``."""
    built = []

    def build(seed=0):
        built.append(CountedSimulator(seed))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domain_module, "Simulator", build)
        yield
    tally["parked"] += sum(sim.parked for sim in built)
    tally["refills"] += sum(sim.refills for sim in built)


@contextmanager
def verdicts_counted(tally: dict):
    """Count the shipped rule's verdicts into ``tally``: in place at
    this instant, in place at a later completion, scheduled; and the
    in-place ones again by caller, a datagram's delivery or a
    data-plane hop."""
    shipped = Simulator.nothing_due_by

    def counted(sim, time):
        verdict = shipped(sim, time)
        if not verdict:
            tally["scheduled"] += 1
        else:
            tally["free" if time == sim.now else "costed"] += 1
            # Cpu.execute_last asks; the job it would fire says whose it is
            callback = sys._getframe(1).f_locals["callback"]
            hop = callback.__qualname__.startswith("DataPlane.")
            tally["data-plane" if hop else "delivery"] += 1
        return verdict

    Simulator.nothing_due_by = counted
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


def run_scenario(seed: int, mode: str) -> dict:
    """One seeded domain, driven to the end; everything observable."""
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
        "replies": [
            repr(reply.value) if reply.done else type(reply.error).__name__
            for reply in replies
        ],
        "inboxes": inboxes,
        "probe": probe.log,
        **domain_state(domain, clients),
    }


MODES = ("run", "step", "budget")


def check_seeds(seeds) -> dict:
    """Compare the shipped system, on a :class:`CountedSimulator`, with
    ``literal_domain()`` on every seed, ``now``, ``events_processed``
    and ``pending_events`` included after every ``run()``; returns how
    often the shipped rule fired a handler in place at its arrival
    (``free``), in place at its job's later completion (``costed``),
    and how often it found something due first (``scheduled``); the
    in-place firings split again by caller, ``Network._deliver``
    (``delivery``) or an anycast data-plane hop (``data-plane``); what
    the shipped queue's far tier did (:data:`FAR_TIER`); and every
    literal arm's firing tally."""
    tally = dict.fromkeys(VERDICTS + FAR_TIER + ARMS, 0)
    for seed in seeds:
        mode = MODES[seed % len(MODES)]
        shipped_runs, literal_runs = [], []
        with verdicts_counted(tally), on_counted_queue(tally), runs_logged(shipped_runs):
            shipped = run_scenario(seed, mode)
        with literal_domain(tally), runs_logged(literal_runs):
            literal = run_scenario(seed, mode)
        shipped["runs"], literal["runs"] = shipped_runs, literal_runs
        for key in literal:
            assert shipped[key] == literal[key], (
                f"seed {seed} ({mode}): {key} differs from the literal domain"
            )
    return tally


def test_reduced_seed_set_fires_as_the_always_schedule_oracle_does():
    tally = check_seeds(range(30))
    assert not unfired(tally), tally
    # Worth running only while every verdict is being exercised.
    assert tally["free"] > 1000
    assert tally["costed"] > 300
    assert tally["scheduled"] > 300
    # Half of what these seeds tallied when anycast data-plane hops
    # began to complete in place (417).
    assert tally["data-plane"] > 200
    # Half of what these seeds tallied when the queue gained its far
    # tier (964 / 304).
    assert tally["parked"] > 480, tally
    assert tally["refills"] > 150, tally
