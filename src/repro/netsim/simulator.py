"""A deterministic discrete-event simulator.

This is the substrate standing in for the paper's testbed (Pentium II
machines on 1-5 Mbps wireless links). Virtual time advances only when
events fire, so experiments are repeatable and independent of host
speed; all protocol code runs unmodified on top of it.
"""

from __future__ import annotations

import itertools
import random
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional


#: The slots of an event: the heap holds each one as the plain list
#: ``[time, sequence, callback, args]`` that :meth:`Simulator.at`
#: returns. Lists compare slot by slot and the sequence number is
#: unique, so a push or pop compares floats and ints and never reaches
#: the callback.
TIME, SEQUENCE, CALLBACK, ARGS = 0, 1, 2, 3

#: ``Simulator._until`` / ``_budget_end`` while no bounded run is in progress
_UNBOUNDED = float("inf")

#: Seconds of virtual time per far bucket (see :class:`Simulator`). A
#: power of two, so that ``time / BUCKET_WIDTH`` and ``k * BUCKET_WIDTH``
#: are exact and a time is below bucket ``k + 1``'s start exactly when
#: its bucket index is at most ``k``.
BUCKET_WIDTH = 1.0

#: Every time from ``_LAST_BUCKET * BUCKET_WIDTH`` on, infinity included,
#: shares this one bucket: the index stays an exact float product (and
#: ``int(inf)`` would raise).
_LAST_BUCKET = 2 ** 52
_LAST_TIME = _LAST_BUCKET * BUCKET_WIDTH


def cancel(event: list) -> None:
    """Keep a scheduled event from firing; safe to call repeatedly. It
    stays queued, a tombstone, until the loop pops it."""
    event[CALLBACK] = None


class Simulator:
    """Event loop with virtual time and a seeded RNG.

    The RNG is owned by the simulator so every random decision in an
    experiment (loss, workload generation, jitter) derives from one
    seed, making whole-system runs reproducible.

    The queue has two tiers. Events before ``_horizon`` are on a small
    binary heap, ``_queue``; later ones are appended, unsorted, to the
    far bucket ``int(time / BUCKET_WIDTH)`` (a calendar queue, R. Brown,
    CACM 31(10), 1988). When the heap runs empty, the earliest bucket is
    heapified into it and the horizon moves to that bucket's end. The
    bucket index never decreases as time grows and every far event lies
    at or past the horizon, so each heap entry precedes each far one in
    ``(time, sequence)`` order and the firings are exactly a single
    heap's. What it saves: the refresh timers a domain parks seconds or
    hours ahead no longer sit under every push and pop of the heap.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        #: the near tier: a heap of every event before ``_horizon``
        self._queue: List[list] = []
        self._horizon = BUCKET_WIDTH
        #: the far tier: bucket index -> its events in push order, the
        #: indices on a heap of their own, and how many events they hold
        self._far: Dict[int, List[list]] = {}
        self._far_buckets: List[int] = []
        self._far_count = 0
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
        if time < self._horizon:
            heappush(self._queue, event)
            return event
        bucket = int(time / BUCKET_WIDTH) if time < _LAST_TIME else _LAST_BUCKET
        parked = self._far.get(bucket)
        if parked is None:
            self._far[bucket] = [event]
            heappush(self._far_buckets, bucket)
        else:
            parked.append(event)
        self._far_count += 1
        return event

    def _refill(self) -> bool:
        """Move the earliest far bucket onto the empty near heap; False
        when there is none. Called wherever the head is read."""
        if not self._far_buckets:
            return False
        bucket = heappop(self._far_buckets)
        events = self._far.pop(bucket)
        self._far_count -= len(events)
        heapify(events)
        self._queue += events
        self._horizon = (
            (bucket + 1) * BUCKET_WIDTH if bucket < _LAST_BUCKET else _UNBOUNDED
        )
        return True

    # ------------------------------------------------------------------
    # Firing in place
    # ------------------------------------------------------------------
    def nothing_due_by(self, time: float) -> bool:
        """True when a callback scheduled now for ``time`` would be the
        very next event fired.

        An entry pushed now gets the highest sequence number, so every
        queued entry due by ``time`` — live or cancelled — goes first;
        if the head of the queue is later there is none, and a caller in
        tail position may fire the callback in place (as
        :meth:`Cpu.execute_last <repro.netsim.cpu.Cpu.execute_last>`
        does) with the same ``(time, sequence)`` firing order as
        scheduling it. It must also be an event of the ``run()`` in
        progress: ``time`` within its ``until`` and its ``max_events``
        budget not spent. A NaN ``time`` answers False.
        """
        queue = self._queue
        if not queue:
            self._refill()
        return (
            (not queue or queue[0][TIME] > time)
            and time <= self._until
            and self._events_processed < self._budget_end
        )

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
        while queue or self._refill():
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
            while queue or self._refill():
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
                # (A batch at infinity can continue from a refill: the outer
                # loop starts it again at the same time.)
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
        """Events still queued, near and far (including cancelled
        tombstones)."""
        return len(self._queue) + self._far_count

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
