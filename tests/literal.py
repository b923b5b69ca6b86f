"""The literal reference configuration: what each speed shortcut
replaced, one context manager per arm, and all of them at once.

``src/`` has one behaviour and no switch; each arm here puts back, for
a ``with`` block, what one shortcut replaced: (1) :func:`single_heap`,
(2) :func:`always_schedule`, (3) :func:`full_rounds`, (4)
:func:`parse_and_encode`, (5) :func:`unmemoized`, (6)
:func:`fig3_parser`. :func:`literal_domain` enters all six and yields
a firing tally per arm (:data:`ARMS`): a tally at 0 means the arm was
cancelled by another or never reached, and a comparison under it
proved nothing about that shortcut. A new shortcut lands with its arm
here.
"""

from __future__ import annotations

import itertools
import math
import random
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

import pytest

import repro.experiments.domain as domain_module
from repro.message import InsMessage
from repro.naming import NameSpecifier
from repro.nametree import NameTree
from repro.netsim import ARGS, CALLBACK, TIME, Simulator
from repro.resolver import INR
from repro.resolver.dataplane import DataPlane
from repro.resolver.discovery import NameDiscovery
from repro.resolver.protocol import Advertisement, UpdateBatch
from repro.xp import run_spec

from .naming.fig3_oracle import parse_name_specifier
from .protocol_trace import recording

#: One firing tally per arm, in arm order (the third keeps three, the
#: fourth two).
ARMS = (
    "heap pops", "always-schedule verdicts", "rebuilt table entries",
    "copied deliveries", "scanned sweeps", "parsed name sections",
    "re-encoded forwards", "unmemoized lookups", "oracle parses",
)

#: The fourth arm's tallies: 0 in a run that sends no data packet.
DATA_PLANE_ARMS = ("parsed name sections", "re-encoded forwards")

#: The ``InrStats.snapshot()`` keys the memo arm zeroes, and so the
#: only observables a differential leaves out.
MEMO_COUNTERS = (
    "lookup_memo_hits", "lookup_memo_misses", "lookup_memo_invalidations",
)

_UNBOUNDED = float("inf")


class HeapSimulator:
    """The single-heap event loop, as it was before the queue had two
    tiers. It keeps the attributes ``Cpu.execute_last`` reads and
    writes."""

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._until = self._budget_end = _UNBOUNDED
        self.event_hook: Optional[Callable[[list], None]] = None

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> list:
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> list:
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        event = [time, next(self._sequence), callback, args]
        heappush(self._queue, event)
        return event

    def nothing_due_by(self, time: float) -> bool:
        queue = self._queue
        return (
            (not queue or queue[0][TIME] > time)
            and time <= self._until
            and self._events_processed < self._budget_end
        )

    def step(self) -> bool:
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

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
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
                self.now = batch_time
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
        self.run(until=self.now + duration)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)


@contextmanager
def single_heap(tally: Dict[str, int]):
    """(1) Every ``InsDomain`` built on a :class:`HeapSimulator`, not
    the two-tier queue; on exit counts what they fired (each event
    popped, while nothing fires in place)."""
    built: List[HeapSimulator] = []

    def build(seed: int = 0) -> HeapSimulator:
        built.append(HeapSimulator(seed))
        return built[-1]

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(domain_module, "Simulator", build)
            yield
    finally:
        tally["heap pops"] += sum(sim.events_processed for sim in built)


@contextmanager
def always_schedule(tally: Dict[str, int]):
    """(2) ``nothing_due_by`` answers False, so no handler fires in
    place — on both simulator classes: one patched alone is cancelled
    once the other is active."""

    def due(sim, time: float) -> bool:
        tally["always-schedule verdicts"] += 1
        return False

    with pytest.MonkeyPatch.context() as patch:
        for simulator_class in (Simulator, HeapSimulator):
            patch.setattr(simulator_class, "nothing_due_by", due)
        yield


@contextmanager
def full_rounds(tally: Dict[str, int]):
    """(3) Every periodic table builds every update afresh, every
    delivered ``Advertisement`` / ``UpdateBatch`` is a copy (names,
    announcers and endpoints still shared), so ``NameTree.rehear``
    never recognises one, and every sweep scans."""
    table, expire = NameDiscovery.table, NameTree.expire

    def rebuilding(discovery, tree):
        for record in tree.records():
            record.kept_update = None
            tally["rebuilt table entries"] += 1
        return table(discovery, tree)

    def scanning(tree, now):
        tree._earliest_expiry = -math.inf
        tally["scanned sweeps"] += 1
        return expire(tree, now)

    def on_a_copy(handler):
        def handle(component, payload, source):
            if type(payload) is UpdateBatch:
                payload = replace(payload, updates=[replace(u) for u in payload.updates])
            else:
                payload = replace(payload)
            tally["copied deliveries"] += 1
            return handler(component, payload, source)
        return handle

    copying = dict(INR._DISPATCH)
    for message in (Advertisement, UpdateBatch):
        owner, handler, rule = copying[message]
        copying[message] = (owner, on_a_copy(handler), rule)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NameDiscovery, "table", rebuilding)
        patch.setattr(NameTree, "expire", scanning)
        patch.setattr(INR, "_DISPATCH", copying)
        yield


@contextmanager
def parse_and_encode(tally: Dict[str, int]):
    """(4) Every name section of a data packet goes through
    ``NameSpecifier.parse``, every forward through
    ``hop_decremented()`` … ``encode()``."""

    def parse_always(dataplane, text):
        tally["parsed name sections"] += 1
        return NameSpecifier.parse(text)

    def encode_always(message, trace=None):
        outgoing = message.hop_decremented()
        if trace is not None:
            outgoing.trace = trace
        tally["re-encoded forwards"] += 1
        return outgoing.encode()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataPlane, "name_of", parse_always)
        patch.setattr(InsMessage, "forwarded_frame", encode_always)
        yield


@contextmanager
def unmemoized(tally: Dict[str, int]):
    """(5) Every tree a resolver builds walks itself on each lookup."""
    lookup = NameTree.lookup

    def new_tree(inr, vspace):
        sim = inr.sim
        return NameTree(vspace=vspace, clock=lambda: sim.now, memoize=False)

    def counted(tree, name):
        tally["unmemoized lookups"] += not tree._memoize
        return lookup(tree, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(INR, "new_tree", new_tree)
        patch.setattr(NameTree, "lookup", counted)
        yield


@contextmanager
def fig3_parser(tally: Dict[str, int]):
    """(6) ``NameSpecifier.parse`` is the recursive-descent Fig. 3
    oracle, ``tests/naming/fig3_oracle.py``."""

    def parse(text: str) -> NameSpecifier:
        tally["oracle parses"] += 1
        return parse_name_specifier(text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NameSpecifier, "parse", staticmethod(parse))
        yield


@contextmanager
def literal_domain(tally: Optional[Dict[str, int]] = None):
    """All six arms at once; yields their tally, keyed by :data:`ARMS`
    (pass ``tally`` to count on into it)."""
    tally = {} if tally is None else tally
    for arm in ARMS:
        tally.setdefault(arm, 0)
    with ExitStack() as stack:
        for arm in (single_heap, always_schedule, full_rounds, parse_and_encode,
                    unmemoized, fig3_parser):
            stack.enter_context(arm(tally))
        yield tally


def unfired(tally: Dict[str, int]) -> List[str]:
    """The arms whose tally is still 0."""
    return [arm for arm in ARMS if not tally[arm]]


def domain_state(domain, clients) -> dict:
    """What every domain differential compares besides its own
    observables: each ``InrStats.snapshot()`` but :data:`MEMO_COUNTERS`,
    link, CPU, delivery and ``clients``' counters, and the simulator's
    clock, counts and next random draw (so call it last)."""
    sim, network = domain.sim, domain.network
    return {
        "inrs": [
            {key: n for key, n in inr.stats.snapshot().items() if key not in MEMO_COUNTERS}
            for inr in domain.inrs
        ],
        "links": {pair: link.stats.snapshot() for pair, link in network.links},
        "cpus": {
            node.address: (node.cpu.jobs_executed, node.cpu.busy_seconds, node.cpu.free_at)
            for node in network.nodes
        },
        "delivered": (network.delivered, network.undeliverable),
        "clients": [client.stats.snapshot() for client in clients],
        "clock": (sim.now, sim.events_processed, sim.pending_events, sim.rng.random()),
    }


def check_spec(spec):
    """Run ``spec`` as shipped, then under :func:`literal_domain`: every
    arm's report equal (``==``: no rounding), every datagram of every
    domain equal, every arm fired (the data-plane arm only if a data
    packet was sent). Returns the shipped ``SpecRun``."""
    with recording() as shipped_wire:
        shipped = run_spec(spec)
    with literal_domain() as tally, recording() as literal_wire:
        literal = run_spec(spec)

    def reports(run):
        return [arm.details["report"] for arm in (run.baseline, *run.ablations.values())]

    assert reports(literal) == reports(shipped)

    def datagrams(traces):
        assert not any(trace.dropped for trace in traces)
        return [[(e.time, e.source, e.destination, e.port, e.kind, e.size)
                 for e in trace.events] for trace in traces]

    wire = datagrams(shipped_wire)
    assert datagrams(literal_wire) == wire
    silent = unfired(tally)
    if not any(e.kind == "DataPacket" for trace in shipped_wire for e in trace.events):
        silent = [arm for arm in silent if arm not in DATA_PLANE_ARMS]
    assert not silent, tally
    return shipped
