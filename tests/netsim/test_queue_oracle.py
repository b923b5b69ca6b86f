"""The two-tier event queue must fire exactly as one binary heap does.

``Simulator`` keeps the events before a horizon on a small heap and
parks later ones, unsorted, in fixed-width time buckets that it
heapifies one at a time as the heap runs empty. The oracle,
``tests/literal.py``'s ``HeapSimulator``, is the queue that replaced:
one heap of every event, transcribed as it was. Both are driven in
lockstep by seeded random schedules and must agree, after every call,
on every firing ``(time, sequence, callback)``, on
``events_processed``, ``pending_events`` (near, far and tombstones:
``netsim.peak_pending_events`` reads it) and ``now``. The
firing-order differential's seeded domains run as shipped and under
``literal_domain()``, every arm at once, and must agree on the same
after every ``run``.

The schedules reach what the split could get wrong: cancels and
tombstones, same-instant batches, ``run(until=...)`` stopping inside a
bucket and at its edges, ``run(max_events=...)``, ``step()``,
``nothing_due_by`` (which refills the heap when it is empty), times at
bucket edges ``k * BUCKET_WIDTH`` and their ``math.nextafter``
neighbours, handlers fired in place by ``Cpu.execute_last``, and the
far times a quiet domain parks its timers at (1e6, 1e9) and beyond.
Tier-1 runs a reduced seed set; ``check_schedules`` and
``check_domains`` are what the CI ``test`` job calls with a wide one.
"""

import itertools
import math
import random
from typing import Callable, List

import pytest

import repro.experiments.domain as domain_module
from repro.netsim import ARGS, SEQUENCE, TIME, Cpu, Simulator, cancel
from repro.netsim.simulator import BUCKET_WIDTH

from ..literal import ARMS, HeapSimulator, unfired
from .test_firing_order_differential import check_seeds


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


def _state(sim) -> tuple:
    return (sim.now, sim.events_processed, sim.pending_events)


# ----------------------------------------------------------------------
# Seeded random schedules
# ----------------------------------------------------------------------
#: far times as a quiet domain parks them, and beyond
FAR = (1e6, 1e6 + 0.5, 1e9, 1e15)


def _edge_near(now: float, shape: random.Random) -> float:
    """A bucket edge at or after ``now``, or one of its float neighbours."""
    edge = (math.floor(now / BUCKET_WIDTH) + shape.randint(0, 3)) * BUCKET_WIDTH
    return shape.choice((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))


def _time(now: float, shape: random.Random) -> float:
    """A time at or after ``now``: this instant, a little or a lot
    later, at or beside a bucket edge, or parked far ahead."""
    kind = shape.random()
    if kind < 0.2:
        return now
    if kind < 0.45:
        return now + shape.choice((0.001, 0.01, 0.25)) * shape.randint(1, 8)
    if kind < 0.7:
        return max(now, _edge_near(now, shape))
    if kind < 0.85:
        return now + shape.uniform(0.0, 6.0 * BUCKET_WIDTH)
    return max(now, shape.choice(FAR))


class Schedule:
    """One simulator driven by a seeded script; ``act`` is the callback
    of every event it schedules, and does the same on either queue as
    long as both fire the same events in the same order."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.cpu = Cpu(sim)
        self.events: List[list] = []
        self.firings: List[tuple] = []
        self.verdicts: List[bool] = []
        self.in_place = 0
        self._jobs = 0  # execute_last calls not yet returned
        #: acts that may still schedule more: a run to a far ``until``
        #: would otherwise never end
        self._spawning = 300
        sim.event_hook = lambda event: self.firings.append(
            (event[TIME], event[SEQUENCE], event[ARGS])
        )

    def push(self, time: float, token: int) -> None:
        self.events.append(self.sim.at(time, self.act, token))

    def act(self, token: int) -> None:
        sim, shape = self.sim, random.Random(token)
        self.in_place += self._jobs > 0
        self._spawning -= 1
        if self._spawning < 0:
            return
        for child in range(shape.choice((0, 0, 1, 1, 2, 3))):
            self.push(_time(sim.now, shape), token * 7 + child + 1)
        if self.events and shape.random() < 0.3:
            cancel(shape.choice(self.events))
        if shape.random() < 0.2:
            self.verdicts.append(sim.nothing_due_by(_time(sim.now, shape)))
        if shape.random() < 0.4:
            # the last act of this event: a job that may complete in place
            self._jobs += 1
            self.cpu.execute_last(
                shape.choice((0.0, 0.0, 0.0005, 0.3, BUCKET_WIDTH)),
                self.act, token * 7 + 5,
            )
            self._jobs -= 1

    def call(self, op: tuple) -> None:
        kind, *values = op
        sim = self.sim
        if kind == "at":
            for token in values[1]:
                self.push(values[0], token)
        elif kind == "cancel":
            if self.events:
                cancel(self.events[values[0] % len(self.events)])
        elif kind == "run":
            sim.run(until=values[0], max_events=values[1])
        elif kind == "step":
            sim.step()
        else:
            self.verdicts.append(sim.nothing_due_by(values[0]))


def _script(seed: int, now: Callable[[], float]):
    """The seeded operations, generated against the clock ``now()``
    reads after each one (the two queues share it while they agree)."""
    shape = random.Random(seed)
    token = itertools.count(seed * 1_000_003)
    for _ in range(shape.randint(30, 90)):
        kind = shape.random()
        if kind < 0.45:
            # a batch: one event or several at the same instant
            batch = [next(token) for _ in range(shape.choice((1, 1, 1, 2, 5)))]
            yield ("at", _time(now(), shape), batch)
        elif kind < 0.55:
            yield ("cancel", shape.randrange(1 << 30))
        elif kind < 0.75:
            until = shape.choice((None, _time(now(), shape), _edge_near(now(), shape)))
            budget = shape.choice((None, None, shape.randint(0, 12)))
            if until is None and budget is None:
                budget = shape.randint(1, 40)  # an unbounded run need not end
            yield ("run", until, budget)
        elif kind < 0.9:
            yield ("step",)
        else:
            yield ("due", _time(now(), shape))


def check_schedules(seeds) -> dict:
    """Drive both queues through each seeded schedule, comparing after
    every call; returns what the shipped queue's far tier did."""
    tally = {"firings": 0, "parked": 0, "refills": 0, "in place": 0, "verdicts": 0}
    for seed in seeds:
        shipped = Schedule(CountedSimulator(seed))
        oracle = Schedule(HeapSimulator(seed))
        for step, op in enumerate(_script(seed, lambda: shipped.sim.now)):
            shipped.call(op)
            oracle.call(op)
            where = f"seed {seed}, call {step} {op[0]}"
            assert shipped.firings == oracle.firings, where
            assert _state(shipped.sim) == _state(oracle.sim), where
            assert shipped.verdicts == oracle.verdicts, where
        tally["firings"] += len(shipped.firings)
        tally["parked"] += shipped.sim.parked
        tally["refills"] += shipped.sim.refills
        tally["in place"] += shipped.in_place
        tally["verdicts"] += len(shipped.verdicts)
    return tally


# ----------------------------------------------------------------------
# The firing-order differential's seeded domains
# ----------------------------------------------------------------------
def check_domains(seeds) -> dict:
    """The firing-order differential's ``check_seeds`` with every
    shipped domain on a :class:`CountedSimulator`, and ``now``,
    ``events_processed`` and ``pending_events`` also compared after
    every ``run``. (Not after every ``step``: under the always-schedule
    arm a step that would fire a job in place ends at the arrival, so
    the literal domain takes more steps to make the same firings.)
    Returns the shipped queue's far-tier tally and every literal arm's."""
    built: List[CountedSimulator] = []
    runs: dict = {Simulator: [], HeapSimulator: []}

    def build(seed=0):
        built.append(CountedSimulator(seed))
        return built[-1]

    def logged(run, queue):
        def logged_run(sim, until=None, max_events=None):
            run(sim, until, max_events)
            runs[queue].append(_state(sim))
        return logged_run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domain_module, "Simulator", build)
        for queue in runs:
            patch.setattr(queue, "run", logged(queue.run, queue))
        tally = check_seeds(seeds)
    assert runs[Simulator] == runs[HeapSimulator]
    return {
        "firings": sum(sim.events_processed for sim in built),
        "parked": sum(sim.parked for sim in built),
        "refills": sum(sim.refills for sim in built),
        "calls": len(runs[Simulator]),
        **{arm: tally[arm] for arm in ARMS},
    }


def test_reduced_seed_set_of_schedules_fires_as_one_heap_does():
    tally = check_schedules(range(200))
    # Worth running only while the far tier and the in-place path are
    # exercised. Floors are half of what these seeds tallied when the
    # queue gained its far tier (44,930 / 2,997 / 247 / 10,144).
    assert tally["parked"] > 22_000, tally
    assert tally["refills"] > 1_500, tally
    assert tally["in place"] > 120, tally
    assert tally["verdicts"] > 5_000, tally


def test_reduced_seed_set_of_domains_fires_as_one_heap_does():
    tally = check_domains(range(30))
    assert not unfired(tally), tally
    # half of what these seeds tallied (964 / 304)
    assert tally["parked"] > 480, tally
    assert tally["refills"] > 150, tally
