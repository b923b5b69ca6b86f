"""Disruption tolerance: custody store-and-forward (``repro.dtn``).

With ``enable_custody`` on, a late-binding anycast payload the
forwarding agent cannot move is parked in a bounded store and released
when name state returns, instead of being dropped. This component is
the custodian: it takes and releases payloads, lapses the overdue ones,
and hands the store to a neighbor when the resolver retires.
"""

from __future__ import annotations

from typing import Optional

from ..dtn import CustodyEntry, CustodyStore
from ..message import Binding, CustodyRecord, CustodyTransfer, Delivery, Header
from ..obs import DROP_PREFIX
from .dataplane import best_route
from .costs import cost_per_record
from .protocol import DataPacket

#: Maximum payloads held in custody at once (FIFO-within-priority
#: eviction past this bound).
CUSTODY_CAPACITY = 256

#: How often held payloads are re-attempted and expired. Triggered name
#: updates retry immediately; this timer is the backstop that catches
#: link heals no update announces.
CUSTODY_RETRY_INTERVAL = 0.5


class Custodian:
    """The custody store of one INR and everything that acts on it."""

    def __init__(self, inr) -> None:
        self.inr = inr
        #: None when custody is off: nothing is taken, and a handoff
        #: that arrives here is lost, attributably
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

    def take(
        self,
        vspace: str,
        packet: DataPacket,
        cause: str,
        priority: int,
        span=None,
    ) -> bool:
        """Take custody of an unroutable payload instead of dropping it.

        Returns True when the payload's fate was settled here — held,
        or evicted at the door (which is itself an attributed drop) —
        and False when custody does not apply, in which case the caller
        falls through to the paper's drop behavior. Only late-binding
        anycast is eligible: early binding answers from current state
        by design, and a multicast payload has no single custodian.
        """
        if self.store is None:
            return False
        inr = self.inr
        message = packet.message
        if (message.binding, message.delivery) != (Binding.LATE, Delivery.ANYCAST):
            return False
        entry, evicted = self.store.accept(
            packet.raw,
            message.destination,
            vspace,
            inr.now,
            ttl=inr.config.custody_ttl,
            priority=priority,
            cause=cause,
            trace=message.trace,
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
        inr = self.inr
        if cause == "custody-expired":
            inr.stats.drops_custody_expired += 1
        elif cause == "custody-evicted":
            inr.stats.drops_custody_evicted += 1
        else:
            inr.stats.drops_custody_transfer_failed += 1
        self._span(entry, DROP_PREFIX + cause)

    def _span(self, entry: CustodyEntry, status: str, note: str = "") -> None:
        """One ``inr.custody`` span per fate of a held payload."""
        inr = self.inr
        span = inr.span_start("inr.custody", entry.trace, cause=entry.cause)
        if note:
            inr.span_note(span, note)
        inr.span_end(span, status)

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
            live = [
                r
                for r in tree.lookup(entry.destination)
                if not r.is_expired(inr.now)
            ]
            if not live:
                continue
            best = best_route(live)
            if not best.route.is_local and self.next_hop_suspect(
                best.route.next_hop
            ):
                continue
            if self.store.release(entry):
                inr.stats.custody_released += 1
                self._span(entry, "custody-released")
                inr.dataplane.handle_data(DataPacket(raw=entry.raw), inr.address)

    def adopt(self, snapshot: tuple) -> None:
        """Re-admit payloads from a crash snapshot or a handoff,
        preserving each absolute deadline; the ones that lapsed on the
        way, or that capacity pushes out, are attributed as drops."""
        before = self.store.counts.accepted
        lapsed, evicted = self.store.adopt(snapshot, self.inr.now)
        self.inr.stats.custody_accepted += self.store.counts.accepted - before
        for entry in lapsed:
            self._drop(entry, "custody-expired")
        for entry in evicted:
            self._drop(entry, "custody-evicted")

    def handoff(self) -> None:
        """Migrate held payloads to a surviving neighbor (termination
        path). Deadlines ride along unchanged — a handoff must not
        reset a payload's custody clock. Best-effort by nature: the
        sender is about to stop and cannot retransmit past its death."""
        if self.store is None:
            return
        inr = self.inr
        entries = self.store.drain()
        if not entries:
            return
        parent = inr.neighbors.parent
        if parent is not None:
            recipient: Optional[str] = parent.address
        else:
            addresses = sorted(inr.neighbors.addresses)
            recipient = addresses[0] if addresses else None
        if recipient is None:
            # Nobody left to hand custody to; the payloads die with us.
            for entry in entries:
                self._drop(entry, "custody-transfer-failed")
            return
        records = tuple(
            CustodyRecord(
                raw=entry.raw,
                vspace=entry.vspace,
                deadline=entry.deadline,
                priority=entry.priority,
                transfers=entry.transfers + 1,
            )
            for entry in entries
        )
        inr.discovery.send_control(
            recipient, CustodyTransfer(sender=inr.address, records=records)
        )
        inr.stats.custody_transfers_sent += 1
        for entry in entries:
            self._span(entry, "custody-transferred", f"handoff to {recipient}")

    def _handle_custody_transfer(
        self, transfer: CustodyTransfer, source: str
    ) -> None:
        """Adopt payloads from a departing custodian, then immediately
        re-attempt them — this resolver may well have the route its
        predecessor lacked."""
        inr = self.inr
        inr.stats.custody_transfers_received += 1
        if self.store is None:
            # No custody store here: the handoff's payloads have no
            # custodian left and are lost, attributably.
            for record in transfer.records:
                try:
                    context = Header.unpack(record.raw).trace
                except ValueError:
                    context = None
                inr.stats.drops_custody_transfer_failed += 1
                span = inr.span_start("inr.custody", context)
                inr.span_end(span, DROP_PREFIX + "custody-transfer-failed")
            return
        self.adopt(
            tuple(
                (
                    record.raw,
                    record.vspace,
                    record.deadline,
                    record.priority,
                    "transferred",
                    record.transfers,
                )
                for record in transfer.records
            )
        )
        self.retry()

    HANDLERS = {CustodyTransfer: (_handle_custody_transfer, cost_per_record)}
