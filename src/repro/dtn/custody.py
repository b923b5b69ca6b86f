"""The bounded custody store behind disruption-tolerant forwarding.

When an INR's forwarding agent finds a late-binding anycast payload it
cannot move — no record matches the destination name, every match has
outlived its soft-state lifetime, or the next hop has gone silent — a
disruption-tolerant resolver takes *custody* of the payload instead of
dropping it: the encoded packet is parked here, bounded in count and in
time, and re-attempted when name state changes or links heal. The name
is what waits out the partition, exactly the property that makes
intentional naming a natural fit for delay-tolerant networks.

Everything about the store is deterministic: admission order assigns a
monotonic sequence number, eviction is FIFO within priority tiers, and
expiry compares virtual-time deadlines — two same-seed runs make
identical custody decisions. Priorities keep the cheapest loss last:

- :data:`PRIORITY_KNOWN_NAME` (0): the destination name *was* known
  here (an expired record, or a suspect next hop on a live route). The
  service evidently exists and is likely to re-advertise — evicted
  last.
- :data:`PRIORITY_UNKNOWN_NAME` (1): no record for the name was ever
  seen. It may be a name that never existed — evicted first.

The store also supports the DSR's snapshot/adopt state-transfer
pattern: :meth:`CustodyStore.snapshot` emits a copyable view (custody
is stable storage — it survives a crash of the process holding it) and
:meth:`CustodyStore.adopt` re-admits a snapshot, re-running capacity
eviction, so custody migrates across restarts and CUSTODY-TRANSFER
handoffs alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..naming import NameSpecifier

#: Custody priority for payloads whose destination name was known when
#: custody was taken (expired record / suspect next hop): evicted last.
PRIORITY_KNOWN_NAME = 0

#: Custody priority for payloads whose destination name was never seen
#: at this resolver: evicted first.
PRIORITY_UNKNOWN_NAME = 1


@dataclass
class CustodyEntry:
    """One payload held in custody.

    ``raw`` is the full encoded INS packet (header, names, data, any
    trace context) — authoritative for re-injection and for the wire
    form of a CUSTODY-TRANSFER. ``destination`` is parsed once at
    accept time so retry matching never re-decodes the packet.
    """

    raw: bytes
    destination: NameSpecifier
    vspace: str
    accepted_at: float
    #: absolute virtual time at which custody lapses (TTL expiry)
    deadline: float
    priority: int
    #: admission order within this store; FIFO eviction key
    sequence: int
    #: why custody was taken (no-route / expired-record / next-hop-suspect)
    cause: str = "no-route"
    #: how many custody handoffs this payload has survived
    transfers: int = 0
    #: trace context carried by the packet, for drop/release spans
    trace: object = field(default=None, repr=False)


@dataclass
class CustodyCounts:
    """Cumulative custody outcomes, one counter per fate."""

    accepted: int = 0
    #: released back into the forwarding path (a route reappeared)
    released: int = 0
    #: custody lapsed: the TTL deadline passed unresolved
    expired: int = 0
    #: pushed out by capacity pressure (or refused at the door)
    evicted: int = 0
    #: entries adopted from a CUSTODY-TRANSFER or a snapshot
    adopted: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Every counter in declaration order — the uniform shape the
        metrics registry ingests."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CustodyStore:
    """A bounded, deterministically-evicted parking lot for payloads.

    ``capacity`` bounds the entry count. Admission past capacity evicts
    from the numerically-highest (least valuable) priority tier first,
    oldest sequence first within the tier — FIFO within priority. An
    arriving payload strictly less valuable than everything stored is
    refused at the door and counted as evicted itself.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"custody capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: sequence -> entry, in admission order (dict preserves it)
        self._entries: Dict[int, CustodyEntry] = {}
        self._sequences = itertools.count(1)
        self.counts = CustodyCounts()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Admission and eviction
    # ------------------------------------------------------------------
    def accept(
        self,
        raw: bytes,
        destination: NameSpecifier,
        vspace: str,
        now: float,
        ttl: float,
        priority: int,
        cause: str = "no-route",
        transfers: int = 0,
        deadline: Optional[float] = None,
        trace: object = None,
    ) -> Tuple[Optional[CustodyEntry], List[CustodyEntry]]:
        """Take custody of one payload.

        Returns ``(entry, evicted)``: the admitted entry (None when the
        payload was refused because the store is full of higher-priority
        state) and the entries evicted to make room. ``deadline``
        overrides ``now + ttl`` when custody is adopted mid-life from a
        transfer — a handoff must not reset the payload's clock.
        """
        evicted: List[CustodyEntry] = []
        if len(self._entries) >= self.capacity:
            victim = self._eviction_victim(priority)
            if victim is None:
                # Everything stored outranks (or ties below) the
                # arrival; the newcomer itself is the cheapest loss.
                self.counts.evicted += 1
                return None, evicted
            del self._entries[victim.sequence]
            self.counts.evicted += 1
            evicted.append(victim)
        entry = CustodyEntry(
            raw=raw,
            destination=destination,
            vspace=vspace,
            accepted_at=now,
            deadline=deadline if deadline is not None else now + ttl,
            priority=priority,
            sequence=next(self._sequences),
            cause=cause,
            transfers=transfers,
            trace=trace,
        )
        self._entries[entry.sequence] = entry
        self.counts.accepted += 1
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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def expire(self, now: float) -> List[CustodyEntry]:
        """Remove and return every entry whose custody deadline passed."""
        lapsed = [e for e in self._entries.values() if now >= e.deadline]
        for entry in lapsed:
            del self._entries[entry.sequence]
            self.counts.expired += 1
        return lapsed

    def release(self, entry: CustodyEntry) -> bool:
        """Remove ``entry`` for re-injection into the forwarding path."""
        if self._entries.pop(entry.sequence, None) is None:
            return False
        self.counts.released += 1
        return True

    def entries(self, vspace: Optional[str] = None) -> List[CustodyEntry]:
        """Current entries in admission order, optionally one vspace's."""
        if vspace is None:
            return list(self._entries.values())
        return [e for e in self._entries.values() if e.vspace == vspace]

    def drain(self) -> List[CustodyEntry]:
        """Remove and return everything — the terminating-INR handoff."""
        drained = list(self._entries.values())
        self._entries = {}
        return drained

    # ------------------------------------------------------------------
    # State transfer (the DSR snapshot/adopt pattern)
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """A copyable view of the held payloads, for stable storage
        across a crash or a custody handoff."""
        return tuple(
            (e.raw, e.vspace, e.deadline, e.priority, e.cause, e.transfers)
            for e in self._entries.values()
        )

    def adopt(self, snapshot: tuple, now: float) -> Tuple[List[CustodyEntry], List[CustodyEntry]]:
        """Re-admit a snapshot's payloads, preserving each deadline.

        Runs normal admission, so capacity pressure evicts exactly as a
        live accept would. Already-lapsed payloads are not admitted but
        returned so the caller can attribute their loss. Returns
        ``(lapsed, evicted)``.
        """
        from ..message import InsMessage

        lapsed: List[CustodyEntry] = []
        evicted: List[CustodyEntry] = []
        for raw, vspace, deadline, priority, cause, transfers in snapshot:
            message = InsMessage.decode(raw)
            if now >= deadline:
                ghost = CustodyEntry(
                    raw=raw,
                    destination=message.destination,
                    vspace=vspace,
                    accepted_at=now,
                    deadline=deadline,
                    priority=priority,
                    sequence=0,
                    cause=cause,
                    transfers=transfers,
                    trace=message.trace,
                )
                self.counts.expired += 1
                lapsed.append(ghost)
                continue
            entry, pushed_out = self.accept(
                raw,
                message.destination,
                vspace,
                now,
                ttl=0.0,
                priority=priority,
                cause=cause,
                transfers=transfers,
                deadline=deadline,
                trace=message.trace,
            )
            if entry is not None:
                self.counts.adopted += 1
            else:
                # Refused at the door: surface the loss to the caller
                # like any other eviction so it stays attributable.
                evicted.append(
                    CustodyEntry(
                        raw=raw,
                        destination=message.destination,
                        vspace=vspace,
                        accepted_at=now,
                        deadline=deadline,
                        priority=priority,
                        sequence=0,
                        cause=cause,
                        transfers=transfers,
                        trace=message.trace,
                    )
                )
            evicted.extend(pushed_out)
        return lapsed, evicted

    def __repr__(self) -> str:
        return (
            f"CustodyStore(held={len(self._entries)}/{self.capacity}, "
            f"accepted={self.counts.accepted}, released={self.counts.released})"
        )
