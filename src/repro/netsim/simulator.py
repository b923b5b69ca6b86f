"""A deterministic discrete-event simulator.

This is the substrate standing in for the paper's testbed (Pentium II
machines on 1-5 Mbps wireless links). Virtual time advances only when
events fire, so experiments are repeatable and independent of host
speed; all protocol code runs unmodified on top of it.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, List, Optional, Tuple


#: ``Simulator._budget_end`` while no ``run(max_events=...)`` is in progress
_NO_BUDGET = float("inf")


class Event:
    """A scheduled callback; cancellable until it fires.

    Events define no ordering of their own: the simulator's heap holds
    ``(time, sequence, event)`` tuples, so the comparisons a push or
    pop makes happen between floats and ints, and the unique sequence
    number settles every tie before an ``Event`` is ever compared.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call repeatedly."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state}, {self.callback!r})"


class Simulator:
    """Event loop with virtual time and a seeded RNG.

    The RNG is owned by the simulator so every random decision in an
    experiment (loss, workload generation, jitter) derives from one
    seed, making whole-system runs reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: ``events_processed`` value at which a ``run(max_events=...)``
        #: in progress must return; in-place firings count against it.
        self._budget_end = _NO_BUDGET
        #: Optional profiling hook, called with each Event just before
        #: it fires (``repro.obs`` installs one to count events per
        #: callback). None costs a single comparison per event.
        self.event_hook: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        # Every guard here and in the rest of netsim is written as the
        # negated accepting comparison, so that NaN — which fails every
        # comparison — is refused rather than let onto the heap.
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        sequence = next(self._sequence)
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    # ------------------------------------------------------------------
    # Firing in place
    # ------------------------------------------------------------------
    def nothing_else_due(self) -> bool:
        """True when a callback scheduled for the current instant would
        be the very next entry popped.

        An entry pushed now gets the highest sequence number, so every
        queued entry due at this instant — live or cancelled — goes
        first; if the head of the heap is later than ``now`` there is
        none, and a caller in tail position may :meth:`fire` the
        callback in place with the same ``(time, sequence)`` firing
        order as scheduling it. An exhausted ``run(max_events=...)``
        budget also answers False: the callback belongs to a later run.
        """
        queue = self._queue
        return (
            (not queue or queue[0][0] > self.now)
            and self._events_processed < self._budget_end
        )

    def fire(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` now, counted and profiled as the
        fired event it stands for — sequence number included, so every
        later entry is keyed exactly as if this one had been scheduled.
        Only valid in tail position while :meth:`nothing_else_due` holds."""
        sequence = next(self._sequence)
        self._events_processed += 1
        if self.event_hook is not None:
            self.event_hook(Event(self.now, sequence, callback, args))
        callback(*args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event (and whatever it fires in place);
        False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self.now = event.time
            self._events_processed += 1
            if self.event_hook is not None:
                self.event_hook(event)
            event.callback(*event.args)
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
        pop = heapq.heappop
        # The budget lives on the simulator, not in a local: a callback
        # fired in place inside another is an event of this run too.
        self._budget_end = budget_end = (
            _NO_BUDGET if max_events is None
            else self._events_processed + max_events
        )
        try:
            while queue:
                batch_time, _, head = queue[0]
                if head.cancelled:
                    pop(queue)
                    continue
                if until is not None and batch_time > until:
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
                while queue and queue[0][0] == batch_time:
                    if self._events_processed >= budget_end:
                        return
                    event = pop(queue)[2]
                    if event.cancelled:
                        continue
                    self._events_processed += 1
                    if self.event_hook is not None:
                        self.event_hook(event)
                    event.callback(*event.args)
        finally:
            self._budget_end = _NO_BUDGET
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
