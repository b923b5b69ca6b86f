"""Disruption tolerance: custody store-and-forward.

With ``enable_custody`` on, a late-binding anycast payload the
forwarding agent cannot move — no live record matches the destination
name, or the next hop has gone silent — is parked in a bounded store
and released when name state returns, instead of being dropped. The
name is what waits out the partition, the property that makes
intentional naming a natural fit for delay-tolerant networks.

This module is the store and its one user, the custodian: it takes and
releases payloads, lapses the overdue ones, and restores the store
after a crash (custody is stable storage). Custody is single-hop: a
resolver that retires drops what it still holds.

Everything about the store is deterministic: admission order assigns a
monotonic sequence number, eviction is FIFO within priority tiers, and
expiry compares virtual-time deadlines — two same-seed runs make
identical custody decisions. Priorities keep the cheapest loss last:

- :data:`PRIORITY_KNOWN_NAME` (0): the destination name is known here
  and routed by a live record, but its next hop has gone silent. The
  service evidently exists — evicted last.
- :data:`PRIORITY_UNKNOWN_NAME` (1): no live record matches the name.
  It may be a name that never existed, or one whose soft state lapsed
  — evicted first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..message import Binding, Delivery
from ..naming import NameSpecifier
from ..obs import DROP_PREFIX
from .dataplane import best_route
from .protocol import DataPacket

#: Maximum payloads held in custody at once (FIFO-within-priority
#: eviction past this bound).
CUSTODY_CAPACITY = 256

#: How often held payloads are re-attempted and expired. Triggered name
#: updates retry immediately; this timer is the backstop that catches
#: link heals no update announces.
CUSTODY_RETRY_INTERVAL = 0.5

#: Custody priority for payloads whose destination name was routed by a
#: live record when custody was taken (a suspect next hop): evicted last.
PRIORITY_KNOWN_NAME = 0

#: Custody priority for payloads whose destination name no live record
#: matched at this resolver: evicted first.
PRIORITY_UNKNOWN_NAME = 1


@dataclass
class CustodyEntry:
    """One payload held in custody.

    ``raw`` is the full encoded INS packet (header, names, data, any
    trace context) — authoritative for re-injection. ``destination`` is
    parsed once at accept time so retry matching never re-decodes the
    packet.
    """

    raw: bytes
    destination: NameSpecifier
    vspace: str
    #: absolute virtual time at which custody lapses (TTL expiry)
    deadline: float
    priority: int
    #: admission order within this store; FIFO eviction key
    sequence: int
    #: why custody was taken (no-route / next-hop-suspect)
    cause: str
    #: trace context carried by the packet, for drop/release spans
    trace: object = field(repr=False)


class CustodyStore:
    """A bounded, deterministically-evicted parking lot for payloads.

    ``capacity`` bounds the entry count. Admission past capacity evicts
    from the numerically-highest (least valuable) priority tier first,
    oldest sequence first within the tier — FIFO within priority. An
    arriving payload strictly less valuable than everything stored is
    refused at the door.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"custody capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: sequence -> entry, in admission order (dict preserves it)
        self._entries: Dict[int, CustodyEntry] = {}
        self._sequences = itertools.count(1)

    def __len__(self) -> int:
        return len(self._entries)

    def accept(
        self,
        raw: bytes,
        destination: NameSpecifier,
        vspace: str,
        deadline: float,
        priority: int,
        cause: str,
        trace: object,
    ) -> Tuple[Optional[CustodyEntry], List[CustodyEntry]]:
        """Take custody of one payload until ``deadline``.

        Returns ``(entry, evicted)``: the admitted entry (None when the
        payload was refused because the store is full of higher-priority
        state) and the entries evicted to make room.
        """
        evicted: List[CustodyEntry] = []
        if len(self._entries) >= self.capacity:
            victim = self._eviction_victim(priority)
            if victim is None:
                # Everything stored outranks the arrival; the newcomer
                # itself is the cheapest loss.
                return None, evicted
            del self._entries[victim.sequence]
            evicted.append(victim)
        entry = CustodyEntry(
            raw=raw,
            destination=destination,
            vspace=vspace,
            deadline=deadline,
            priority=priority,
            sequence=next(self._sequences),
            cause=cause,
            trace=trace,
        )
        self._entries[entry.sequence] = entry
        return entry, evicted

    def _eviction_victim(self, arriving_priority: int) -> Optional[CustodyEntry]:
        """The stored entry to evict for an arrival of the given
        priority, or None when the arrival itself should be refused.

        The victim tier is the numerically-largest stored priority; the
        arrival is refused only when it is strictly worse than that.
        Within the tier the oldest sequence goes first (FIFO).
        """
        victim = max(
            self._entries.values(),
            key=lambda e: (e.priority, -e.sequence),
        )
        if arriving_priority > victim.priority:
            return None
        return victim

    def expire(self, now: float) -> List[CustodyEntry]:
        """Remove and return every entry whose custody deadline passed."""
        lapsed = [e for e in self._entries.values() if now >= e.deadline]
        for entry in lapsed:
            del self._entries[entry.sequence]
        return lapsed

    def release(self, entry: CustodyEntry) -> bool:
        """Remove ``entry``; False when it was no longer held."""
        return self._entries.pop(entry.sequence, None) is not None

    def entries(self) -> List[CustodyEntry]:
        """Current entries in admission order."""
        return list(self._entries.values())

    def __repr__(self) -> str:
        return f"CustodyStore(held={len(self._entries)}/{self.capacity})"


class Custodian:
    """The custody store of one INR and everything that acts on it."""

    def __init__(self, inr) -> None:
        self.inr = inr
        #: None when custody is off: nothing is taken
        self.store: Optional[CustodyStore] = (
            CustodyStore(CUSTODY_CAPACITY) if inr.config.enable_custody else None
        )

    def next_hop_suspect(self, next_hop: Optional[str]) -> bool:
        """True when forwarding to ``next_hop`` would likely feed a dead
        link: the neighbor vanished, or has been silent longer than the
        configured suspicion threshold. Only consulted when custody is
        on — without a custodian there is nothing better to do than try."""
        inr = self.inr
        silence = inr.config.custody_suspect_silence
        if self.store is None or silence <= 0 or next_hop is None:
            return False
        neighbor = inr.neighbors.get(next_hop)
        if neighbor is None:
            return True
        return inr.now - neighbor.last_heard > silence

    def take(self, vspace: str, packet: DataPacket, cause: str, span=None) -> bool:
        """Take custody of an unroutable payload instead of dropping it.

        Returns True when the payload's fate was settled here — held,
        or evicted at the door (which is itself an attributed drop) —
        and False when custody does not apply, in which case the caller
        falls through to the paper's drop behavior. Only late-binding
        anycast is eligible: early binding answers from current state
        by design, and a multicast payload has no single custodian.
        A ``no-route`` name has no live record here and is the first to
        go under capacity pressure; a ``next-hop-suspect`` one has a
        live route, and the service is likely to be reached again.
        """
        if self.store is None:
            return False
        inr = self.inr
        message = packet.message
        if (message.binding, message.delivery) != (Binding.LATE, Delivery.ANYCAST):
            return False
        priority = (
            PRIORITY_UNKNOWN_NAME if cause == "no-route" else PRIORITY_KNOWN_NAME
        )
        entry, evicted = self.store.accept(
            packet.raw,
            message.destination,
            vspace,
            inr.now + inr.config.custody_ttl,
            priority,
            cause,
            message.trace,
        )
        for victim in evicted:
            self._drop(victim, "custody-evicted")
        if entry is None:
            # Refused at the door: the store is full of higher-priority
            # payloads, so the newcomer is the cheapest loss.
            inr.stats.drops_custody_evicted += 1
            inr.span_end(span, DROP_PREFIX + "custody-evicted")
            return True
        inr.stats.custody_accepted += 1
        inr.span_note(span, f"custody cause={cause} priority={priority}")
        inr.span_end(span, "custody-accepted")
        return True

    def _drop(self, entry: CustodyEntry, cause: str) -> None:
        """Attribute the final loss of a custodied payload: a distinct
        drop counter per cause, and a span status a trace query finds."""
        stats = self.inr.stats
        if cause == "custody-expired":
            stats.drops_custody_expired += 1
        elif cause == "custody-evicted":
            stats.drops_custody_evicted += 1
        else:
            stats.drops_terminated += 1
        self._span(entry, DROP_PREFIX + cause)

    def _span(self, entry: CustodyEntry, status: str) -> None:
        """One ``inr.custody`` span per fate of a held payload."""
        inr = self.inr
        inr.span_end(
            inr.span_start("inr.custody", entry.trace, cause=entry.cause), status
        )

    def tick(self) -> None:
        """Periodic custody maintenance (armed when custody is on):
        lapse overdue payloads, then re-attempt the rest. The timer is
        the backstop that catches link heals no update announces."""
        for entry in self.store.expire(self.inr.now):
            self._drop(entry, "custody-expired")
        self.retry()

    def retry(self) -> None:
        """Release every held payload whose destination is resolvable
        again, re-injecting it through the normal forwarding path (late
        binding: the name is re-resolved at release time, so the
        payload goes wherever the service is *now*)."""
        if self.store is None or not len(self.store):
            return
        inr = self.inr
        for entry in self.store.entries():
            tree = inr.trees.get(entry.vspace)
            if tree is None:
                continue
            records = tree.lookup(entry.destination)
            if not records:
                continue
            best = best_route(records)
            if not best.route.is_local and self.next_hop_suspect(
                best.route.next_hop
            ):
                continue
            if self.store.release(entry):
                inr.stats.custody_released += 1
                self._span(entry, "custody-released")
                inr.dataplane.handle_data(
                    DataPacket(raw=entry.raw), inr.address, last=False
                )

    def restore(self, held: Sequence[CustodyEntry]) -> None:
        """Put back what the store held when its resolver crashed, in
        admission order and each with its own deadline. Each one counts
        as accepted in the new incarnation; a payload that lapsed while
        the resolver was down is then a ``custody-expired`` drop. The
        store is as large as the one that held them, so nothing is
        evicted."""
        inr = self.inr
        for entry in held:
            inr.stats.custody_accepted += 1
            if inr.now >= entry.deadline:
                self._drop(entry, "custody-expired")
                continue
            self.store.accept(
                entry.raw, entry.destination, entry.vspace, entry.deadline,
                entry.priority, entry.cause, entry.trace,
            )

    def retire(self) -> None:
        """The resolver is leaving the overlay: what it still holds has
        no custodian left, and each payload is a ``terminated`` drop —
        the cause of any packet that reaches a retired resolver."""
        if self.store is None:
            return
        for entry in self.store.entries():
            self.store.release(entry)
            self._drop(entry, "terminated")
