"""The name discovery protocol (Section 2.2).

Names reach an INR in service advertisements and in the update batches
its overlay neighbors send — periodically (soft state: every name,
every refresh interval) and triggered (what just changed). A received
update is accepted by the distributed Bellman-Ford rule and, when it is
news, passed on with split horizon. This component owns the transport
those updates travel on: raw datagrams, or the per-neighbor reliable
channel of the ``reliable-delta`` mode (footnote 3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..naming import NameSpecifier
from ..nametree import Endpoint, NameRecord, NameTree
from .costs import cost_of_carried, cost_one_name, cost_receive, cost_update_batch
from .ports import INR_PORT
from .protocol import Advertisement, NameUpdate, NameWithdraw, UpdateBatch
from .reliable import ReliableAck, ReliableChannel, ReliableFrame

#: What an update round says: records and, index for index, the update
#: of each (the record's route is what split horizon reads).
_Entries = Tuple[List[NameRecord], List[NameUpdate]]

#: What :meth:`NameDiscovery.send_control` is handed, and so what a
#: reliable frame may carry.
_SENT_RELIABLY = frozenset({UpdateBatch, NameWithdraw})

#: Retransmission timeout of the reliable-delta channel.
RELIABLE_RETRANSMIT_TIMEOUT = 1.0


def _graft(
    tree: NameTree, record: Optional[NameRecord], news, endpoints,
    next_hop: Optional[str], metric: float, expires_at: float,
) -> bool:
    """Install what an advertisement or update says about one name,
    given the record ``tree`` holds for its announcer (or None); True
    when it changed the tree. A refresh of a name already grafted for
    this announcer needs no record; only a new announcer or a renamed
    service is turned into one."""
    changed = None if record is None else tree.refresh(
        record, news.name, endpoints, news.anycast_metric,
        next_hop, metric, expires_at, news,
    )
    if changed is None:
        changed = tree.insert(
            news.name,
            NameRecord(
                announcer=news.announcer,
                endpoints=endpoints,
                anycast_metric=news.anycast_metric,
                route=tree.route(next_hop, metric),
                expires_at=expires_at,
            ),
        ).changed
    return changed


class NameDiscovery:
    """How one INR learns names and tells its neighbors about them."""

    def __init__(self, inr) -> None:
        self.inr = inr
        config = inr.config
        if config.update_mode not in ("soft-state", "reliable-delta"):
            raise ValueError(f"unknown update mode: {config.update_mode!r}")
        #: the reliable-delta transport; None in soft-state mode. Built
        #: per incarnation: sequence numbers from a previous one must
        #: not be mistaken for the new one's.
        self._reliable: Optional[ReliableChannel] = None
        if config.update_mode == "reliable-delta":
            self._reliable = ReliableChannel(
                transmit=lambda neighbor, payload: inr.send(
                    neighbor, INR_PORT, payload
                ),
                deliver=self._deliver_reliable,
                set_timer=inr.set_timer,
                retransmit_timeout=RELIABLE_RETRANSMIT_TIMEOUT,
            )

    # ------------------------------------------------------------------
    # Learning names
    # ------------------------------------------------------------------
    def _handle_advertisement(self, ad: Advertisement, source: str) -> None:
        inr = self.inr
        now = inr.now
        inr.stats.advertisements_processed += 1
        changed: List[tuple] = []  # (vspace, name, record) of what is news
        for vspace in ad.name.vspaces():
            tree = inr.trees.get(vspace)
            if tree is None:
                inr.dataplane.forward_foreign(vspace, ad)
                continue
            expires_at = now + ad.lifetime
            record = tree.record_for(ad.announcer)
            if record is not None and tree.rehear(
                record, ad, None, 0.0, expires_at
            ):
                continue
            endpoints = ad.endpoints or (Endpoint(host=source),)
            if _graft(tree, record, ad, endpoints, None, 0.0, expires_at):
                record = tree.record_for(ad.announcer)
                if record is not None:
                    changed.append((vspace, ad.name, record))
        if changed:
            self._send_triggered(changed, exclude=None)
            inr.custodian.retry()

    def _handle_update_batch(self, batch: UpdateBatch, source: str) -> None:
        inr = self.inr
        inr.stats.update_names_processed += len(batch.updates)
        sender = batch.sender
        link_rtt = inr.neighbors.rtt_to(sender)
        now = inr.sim.now
        trees = inr.trees
        changed: List[tuple] = []  # (vspace, name, record) of what is news
        # One deadline per distinct lifetime in the batch (in practice
        # one): the records it refreshes share the float.
        deadlines: Dict[float, float] = {}
        for update in batch.updates:
            tree = trees.get(update.vspace)
            if tree is None:
                continue
            lifetime = update.lifetime
            expires_at = deadlines.get(lifetime)
            if expires_at is None:
                expires_at = deadlines[lifetime] = now + lifetime
            if self._apply_update(tree, update, sender, link_rtt, expires_at):
                record = tree.record_for(update.announcer)
                if record is not None:
                    changed.append((update.vspace, update.name, record))
        if changed:
            self._send_triggered(changed, exclude=sender)
            inr.custodian.retry()

    def _apply_update(
        self, tree: NameTree, update: NameUpdate, sender: str, link_rtt: float,
        expires_at: float,
    ) -> bool:
        """Distributed Bellman-Ford acceptance; True when state changed
        in a way neighbors should hear about. ``expires_at`` is the
        current time plus the update's lifetime. A dead record is no
        route: neither an incumbent to beat nor a local one to defer to."""
        new_metric = update.route_metric + link_rtt
        existing = tree.record_for(update.announcer)
        if existing is not None:
            if tree.rehear(existing, update, sender, new_metric, expires_at):
                # Heard again from the current next hop at the same
                # metric: no check below can find news in it.
                return False
            route = existing.route
            if route.next_hop is None:
                # Never let a reflected update displace a directly-attached
                # service; the local announcement is authoritative.
                return False
            if route.next_hop != sender and not new_metric < route.metric:
                # News from the current next hop is always accepted, even
                # if the metric worsened (standard distance-vector rule);
                # from anyone else only a strictly better metric is.
                return False
        return _graft(
            tree, existing, update, update.endpoints, sender, new_metric, expires_at
        )

    # ------------------------------------------------------------------
    # Forgetting names
    # ------------------------------------------------------------------
    def _handle_withdraw(self, withdraw: NameWithdraw, source: str) -> None:
        """Explicit name removal (reliable-delta mode)."""
        tree = self.inr.trees.get(withdraw.vspace)
        if tree is None:
            return
        record = tree.record_for(withdraw.announcer)
        if record is None or record.route.next_hop != source:
            return  # only the route's source may withdraw it (never a local one)
        tree.remove(record)
        self._propagate_withdraw(withdraw.announcer, withdraw.vspace,
                                 exclude=source)

    def _propagate_withdraw(self, announcer, vspace: str,
                            exclude: Optional[str]) -> None:
        inr = self.inr
        for neighbor in inr.neighbors:
            if neighbor.address == exclude:
                continue
            self.send_control(
                neighbor.address,
                NameWithdraw(sender=inr.address, announcer=announcer,
                             vspace=vspace),
            )

    def flush_routes_via(self, address: str) -> None:
        """Remove records learned through a dead neighbor immediately.

        Soft state would expire them anyway; flushing now restores
        responsiveness, and periodic updates from live neighbors
        re-install any name still reachable another way. In
        reliable-delta mode there are no periodic re-floods, so the
        flush is also propagated as withdrawals downstream.
        """
        self.reset_channel(address)
        for tree in self.inr.trees.values():
            for record in tree.records():
                if record.route.next_hop == address:
                    tree.remove(record)
                    if self._reliable is not None:
                        self._propagate_withdraw(
                            record.announcer, tree.vspace, exclude=address
                        )

    def expire(self) -> None:
        """The soft-state sweep: collect names that outlived their
        lifetime."""
        inr = self.inr
        for tree in inr.trees.values():
            expired = tree.expire(inr.now)
            if self._reliable is not None:
                # Explicitly withdraw locally announced names that died
                # (the service stopped refreshing its advertisement).
                for record in expired:
                    if record.route.is_local:
                        self._propagate_withdraw(
                            record.announcer, tree.vspace, exclude=None
                        )

    # ------------------------------------------------------------------
    # The transport name state travels on
    # ------------------------------------------------------------------
    def send_control(self, neighbor_address: str, payload: object) -> None:
        """Send a name-state message to a neighbor on the configured
        transport: a raw datagram, or the reliable channel (which
        frames the payload). Either way the payload sizes itself."""
        if self._reliable is not None:
            self._reliable.send(neighbor_address, payload)
        else:
            self.inr.send(neighbor_address, INR_PORT, payload)

    def reset_channel(self, neighbor_address: str) -> None:
        """Start a fresh reliable conversation with a neighbor: a new
        epoch from sequence 1, which the peer can always accept."""
        if self._reliable is not None:
            self._reliable.reset(neighbor_address)

    def _handle_reliable_frame(self, frame: ReliableFrame, source: str) -> None:
        if self._reliable is not None:
            ack = self._reliable.on_frame(source, frame)
            if ack is not None:
                self.inr.send(source, INR_PORT, ack)

    def _handle_reliable_ack(self, ack: ReliableAck, source: str) -> None:
        if self._reliable is not None:
            self._reliable.on_ack(source, ack)

    def _deliver_reliable(self, neighbor: str, payload: object) -> None:
        """In-order application delivery from the reliable channel: the
        payload's own dispatch arm, for what :meth:`send_control` sends."""
        if type(payload) in _SENT_RELIABLY:
            self.inr.dispatch[type(payload)][0](payload, neighbor)

    # ------------------------------------------------------------------
    # Telling the neighbors
    # ------------------------------------------------------------------
    def _announce(
        self, vspace: str, name: NameSpecifier, record: NameRecord
    ) -> NameUpdate:
        """What this INR says about one name now — built, and sized,
        once, whatever the number of neighbors it goes to."""
        return NameUpdate(
            name=name,
            announcer=record.announcer,
            endpoints=record.endpoints,
            anycast_metric=record.anycast_metric,
            route_metric=record.route.metric,
            # Reliable-delta entries are hard state: they live until
            # withdrawn or their neighbor dies.
            lifetime=(
                1e12 if self._reliable is not None
                else self.inr.config.record_lifetime
            ),
            vspace=vspace,
        )

    def table(self, tree: NameTree) -> _Entries:
        """What a full table says about ``tree``'s vspace: every live
        record and, beside it, its update — the one kept on the record
        since the last table, which the tree drops whenever the record
        stops saying what it says. Only a record that changed since
        costs a ``GET-NAME`` and a ``NameUpdate``; nothing else an
        update is built from moves (the vspace and the lifetime are
        fixed for the tree and the incarnation)."""
        records = list(tree.records())
        updates = []
        for record in records:
            update = record.kept_update
            if update is None:
                update = record.kept_update = self._announce(
                    tree.vspace, tree.get_name(record), record
                )
            updates.append(update)
        return records, updates

    def _all_entries(self) -> _Entries:
        records: List[NameRecord] = []
        updates: List[NameUpdate] = []
        for tree in self.inr.trees.values():
            tree_records, tree_updates = self.table(tree)
            records += tree_records
            updates += tree_updates
        return records, updates

    def _batch_for(
        self, entries: _Entries, neighbor_address: str, triggered: bool
    ) -> UpdateBatch:
        """The batch ``neighbor_address`` is sent: every update but
        those whose route it is itself the next hop of (split horizon:
        never echo a route to its source). Sizing it is a sum of the
        sizes its updates took when they were built."""
        return UpdateBatch(
            self.inr.address,
            [
                update
                for record, update in zip(*entries)
                if record.route.next_hop != neighbor_address
            ],
            triggered=triggered,
        )

    def send_periodic_updates(self) -> None:
        inr = self.inr
        if not inr.active or inr.terminated or not inr.neighbors:
            return
        # Reliable-delta mode: names moved when they changed; the
        # periodic message degenerates to an empty keepalive that feeds
        # the neighbor liveness timeout.
        entries = ([], []) if self._reliable is not None else self._all_entries()
        for neighbor in inr.neighbors:
            batch = self._batch_for(entries, neighbor.address, False)
            inr.send(neighbor.address, INR_PORT, batch)
            inr.stats.periodic_updates_sent += 1

    def _send_triggered(self, changed: List[tuple], exclude: Optional[str]) -> None:
        inr = self.inr
        # News is said under the name it arrived with — not always the
        # retained one (a re-spelt name) — so it is built for the
        # occasion; what a record keeps is what a table says of it.
        entries = (
            [record for _, _, record in changed],
            [self._announce(*entry) for entry in changed],
        )
        for neighbor in inr.neighbors:
            if neighbor.address == exclude:
                continue
            batch = self._batch_for(entries, neighbor.address, True)
            if not batch.updates:
                continue
            self.send_control(neighbor.address, batch)
            inr.stats.triggered_updates_sent += 1

    def send_full_table(self, neighbor_address: str) -> None:
        self.send_control(
            neighbor_address,
            self._batch_for(self._all_entries(), neighbor_address, True),
        )

    HANDLERS = {
        Advertisement: (_handle_advertisement, cost_one_name),
        UpdateBatch: (_handle_update_batch, cost_update_batch),
        NameWithdraw: (_handle_withdraw, cost_one_name),
        ReliableFrame: (_handle_reliable_frame, cost_of_carried),
        ReliableAck: (_handle_reliable_ack, cost_receive),
    }

