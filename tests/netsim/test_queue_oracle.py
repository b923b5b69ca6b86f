"""The two-tier event queue must fire exactly as one binary heap does.

``Simulator`` keeps the events before a horizon on a small heap and
parks later ones, unsorted, in fixed-width time buckets that it
heapifies one at a time as the heap runs empty. The oracle,
``tests/literal.py``'s ``HeapSimulator``, is the queue that replaced:
one heap of every event, transcribed as it was. Both are driven in
lockstep by seeded random schedules and must agree, after every call,
on every firing ``(time, sequence, callback)``, on
``events_processed``, ``pending_events`` (near, far and tombstones:
``netsim.peak_pending_events`` reads it) and ``now``. Whole domains
on both queues are the firing-order differential's business
(``test_firing_order_differential.check_seeds``: its shipped domains
run on the :class:`CountedSimulator` used here, its literal ones on the
single heap).

The schedules reach what the split could get wrong: cancels and
tombstones, same-instant batches, ``run(until=...)`` stopping inside a
bucket and at its edges, ``run(max_events=...)``, ``step()``,
``nothing_due_by`` (which refills the heap when it is empty), times at
bucket edges ``k * BUCKET_WIDTH`` and their ``math.nextafter``
neighbours, handlers fired in place by ``Cpu.execute_last``, and the
far times a quiet domain parks its timers at (1e6, 1e9) and beyond.
Tier-1 runs a reduced seed set; ``check_schedules`` is what the CI
``test`` job calls with a wide one.
"""

import itertools
import math
import random
from typing import Callable, List

from repro.netsim import ARGS, SEQUENCE, TIME, Cpu, cancel
from repro.netsim.simulator import BUCKET_WIDTH

from ..literal import HeapSimulator
from .test_firing_order_differential import CountedSimulator, queue_state


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
            assert queue_state(shipped.sim) == queue_state(oracle.sim), where
            assert shipped.verdicts == oracle.verdicts, where
        tally["firings"] += len(shipped.firings)
        tally["parked"] += shipped.sim.parked
        tally["refills"] += shipped.sim.refills
        tally["in place"] += shipped.in_place
        tally["verdicts"] += len(shipped.verdicts)
    return tally


def test_reduced_seed_set_of_schedules_fires_as_one_heap_does():
    tally = check_schedules(range(200))
    # Worth running only while the far tier and the in-place path are
    # exercised. Floors are half of what these seeds tallied when the
    # queue gained its far tier (44,930 / 2,997 / 247 / 10,144).
    assert tally["parked"] > 22_000, tally
    assert tally["refills"] > 1_500, tally
    assert tally["in place"] > 120, tally
    assert tally["verdicts"] > 5_000, tally

