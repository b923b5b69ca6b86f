"""A deterministic discrete-event simulator.

This is the substrate standing in for the paper's testbed (Pentium II
machines on 1-5 Mbps wireless links). Virtual time advances only when
events fire, so experiments are repeatable and independent of host
speed; all protocol code runs unmodified on top of it.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional


#: The slots of an event: the heap holds each one as the plain list
#: ``[time, sequence, callback, args]`` that :meth:`Simulator.at`
#: returns. Lists compare slot by slot and the sequence number is
#: unique, so a push or pop compares floats and ints and never reaches
#: the callback.
TIME, SEQUENCE, CALLBACK, ARGS = 0, 1, 2, 3

#: ``Simulator._until`` / ``_budget_end`` while no bounded run is in progress
_UNBOUNDED = float("inf")


def cancel(event: list) -> None:
    """Keep a scheduled event from firing; safe to call repeatedly. It
    stays queued, a tombstone, until the loop pops it."""
    event[CALLBACK] = None


class Simulator:
    """Event loop with virtual time and a seeded RNG.

    The RNG is owned by the simulator so every random decision in an
    experiment (loss, workload generation, jitter) derives from one
    seed, making whole-system runs reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: The ``run()`` in progress stops past ``_until`` and returns
        #: at ``events_processed == _budget_end``. Kept here, not in its
        #: locals: a callback fired in place is an event of that run too.
        self._until = self._budget_end = _UNBOUNDED
        #: Optional profiling hook, called with each event just before
        #: it fires (``repro.obs`` installs one to count events per
        #: callback). None costs a single comparison per event.
        self.event_hook: Optional[Callable[[list], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> list:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        # Every guard here and in the rest of netsim is written as the
        # negated accepting comparison, so that NaN — which fails every
        # comparison — is refused rather than let onto the heap.
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> list:
        """Run ``callback(*args)`` at absolute virtual ``time``; returns
        the event, which :func:`cancel` takes."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        event = [time, next(self._sequence), callback, args]
        heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # Firing in place
    # ------------------------------------------------------------------
    def nothing_due_by(self, time: float) -> bool:
        """True when a callback scheduled now for ``time`` would be the
        very next event fired.

        An entry pushed now gets the highest sequence number, so every
        queued entry due by ``time`` — live or cancelled — goes first;
        if the head of the heap is later there is none, and a caller in
        tail position may :meth:`fire` the callback in place with the
        same ``(time, sequence)`` firing order as scheduling it. It
        must also be an event of the ``run()`` in progress: ``time``
        within its ``until`` and its ``max_events`` budget not spent.
        A NaN ``time`` answers False.
        """
        queue = self._queue
        return (
            (not queue or queue[0][TIME] > time)
            and time <= self._until
            and self._events_processed < self._budget_end
        )

    def fire(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Move the clock to ``time`` and run ``callback(*args)``,
        counted and profiled as the fired event it stands for —
        sequence number included, so every later entry is keyed exactly
        as if this one had been scheduled. Only valid in tail position
        while :meth:`nothing_due_by` ``(time)`` holds."""
        sequence = next(self._sequence)
        self.now = time
        self._events_processed += 1
        if self.event_hook is not None:
            self.event_hook([time, sequence, callback, args])
        callback(*args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event and whatever it fires in place;
        False when the queue is empty.

        A step that fires a CPU job in place ends at the job's
        completion, not at the arrival that queued it: the firings are
        the ones two steps would make, but ``now`` between them is not
        observable from outside. State a handler changes is changed at
        the completion either way.
        """
        queue = self._queue
        while queue:
            event = heappop(queue)
            callback = event[CALLBACK]
            if callback is None:
                continue
            self.now = event[TIME]
            self._events_processed += 1
            if self.event_hook is not None:
                self.event_hook(event)
            callback(*event[ARGS])
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event queue.

        ``until`` bounds virtual time (events after it stay queued and
        ``now`` advances exactly to ``until``); ``max_events`` bounds
        the number of callbacks fired, as a runaway guard in tests.

        Foot-gun warning: a :class:`~repro.netsim.process.PeriodicTimer`
        reschedules itself forever, so an unbounded ``run()`` over any
        system with periodic protocol activity (an INR, the DSR, a
        Service) never returns. Use ``until=`` / :meth:`run_for` there;
        plain ``run()`` is for event sets that naturally drain.
        """
        queue = self._queue
        pop = heappop
        self._until = bound = _UNBOUNDED if until is None else until
        self._budget_end = budget_end = (
            _UNBOUNDED if max_events is None
            else self._events_processed + max_events
        )
        try:
            while queue:
                head = queue[0]
                if head[CALLBACK] is None:
                    pop(queue)
                    continue
                batch_time = head[TIME]
                if batch_time > bound:
                    break
                # Fire the whole same-timestamp batch in one inner loop: the
                # clock is assigned once per distinct time and each event
                # costs one heappop, not a step() call with its own re-peek.
                # Callbacks that schedule new events at this same timestamp
                # enqueue them with later sequence numbers, so the batch
                # picks them up in deterministic (time, sequence) order.
                self.now = batch_time
                # Exact equality is the batching criterion: only events whose
                # float timestamp is bit-identical share a clock assignment; a
                # near-equal time is a later instant and starts its own batch.
                while queue and queue[0][TIME] == batch_time:
                    if self._events_processed >= budget_end:
                        return
                    event = pop(queue)
                    callback = event[CALLBACK]
                    if callback is None:
                        continue
                    self._events_processed += 1
                    if self.event_hook is not None:
                        self.event_hook(event)
                    callback(*event[ARGS])
        finally:
            self._until = self._budget_end = _UNBOUNDED
        if until is not None:
            self.now = max(self.now, until)

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.run(until=self.now + duration)

    @property
    def events_processed(self) -> int:
        """Total callbacks fired since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still queued (including cancelled tombstones)."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
