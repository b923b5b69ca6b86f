"""Overlay self-configuration (Section 2.4).

A starting INR asks the DSR for the active list, INR-pings each active
resolver, and peers with the one with the minimum round-trip metric —
by construction the overlay is a spanning tree. This component owns the
neighbor table and everything that changes it: the join, the peering
handshake, liveness (silent neighbors are dropped, a lost parent is
re-joined), and the optional relaxation that re-evaluates the parent.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..message.dsr import (
    DsrHeartbeat,
    DsrListRequest,
    DsrListResponse,
    DsrRegisterActive,
)
from ..naming import NameSpecifier
from .costs import cost_ping, cost_receive
from .neighbors import NeighborTable
from .ports import INR_PORT
from .protocol import PeerAccept, PeerGoodbye, PeerRequest, PingRequest, PingResponse

#: The probe name INR-pings carry: small, as the paper describes.
_PING_PROBE = NameSpecifier.from_dict({"service": "inr-ping"})

#: How long a joining INR waits for INR-ping responses before picking
#: the best peer among those that answered.
JOIN_PING_TIMEOUT = 0.5

#: Multiplicative RTT improvement required before relaxation switches
#: parents (hysteresis so the tree does not flap).
RELAXATION_IMPROVEMENT = 0.8


class OverlayMembership:
    """One INR's place in the overlay: its neighbors and how it got them."""

    def __init__(self, inr) -> None:
        self.inr = inr
        self.neighbors = NeighborTable()
        #: INR-pings awaiting their response: token -> (address, time
        #: sent, purpose); one that has waited ``neighbor_timeout`` is
        #: forgotten by the sweep
        self._pending_pings: Dict[int, Tuple[str, float, str]] = {}
        self._join_rtts: Dict[str, float] = {}
        self._join_attempts = 0
        self._joining = False
        #: generation of the join attempt in flight; a watchdog armed
        #: for an earlier one stands down
        self._join_epoch = 0
        self._join_list_seen = False
        self._earlier_inrs: Tuple[str, ...] = ()
        self._pending_peer: Optional[str] = None
        self._peer_attempts = 0

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------
    def begin_join(self) -> None:
        inr = self.inr
        self._joining = True
        self._join_rtts = {}
        self._join_attempts += 1
        self._join_epoch += 1
        self._join_list_seen = False
        inr.tell_dsr(DsrListRequest(reply_to=inr.address, reply_port=inr.port))
        # Watchdog: on a lossy link the DSR's answer may never arrive;
        # a join attempt must not hang forever (robustness, goal iii).
        inr.set_timer(2.0, self._join_watchdog, self._join_epoch)

    def _join_watchdog(self, epoch: int) -> None:
        if not self._joining or epoch != self._join_epoch:
            return
        if self._join_list_seen:
            return  # the per-ping timeout path is already in control
        if self._join_attempts < 5:
            self.begin_join()
        else:
            # Give up for now; the expiry sweep's lonely-overlay check
            # keeps retrying in the background.
            self._finish_join(peer=None)

    def _handle_dsr_list(self, response: DsrListResponse, source: str) -> None:
        inr = self.inr
        if self._joining:
            self._join_list_seen = True
            others = tuple(a for a in response.active if a != inr.address)
            self._note_order(response.active, default=others)
            if not others:
                self._finish_join(peer=None)
                return
            for address in others:
                self._ping(address, purpose="join")
            inr.set_timer(JOIN_PING_TIMEOUT, self._pick_join_peer)
            return
        # A list response outside a join: relaxation probing.
        self._relax_with_list(response)

    def _note_order(self, active: Tuple[str, ...], default: Tuple[str, ...]) -> None:
        """The DSR lists resolvers in activation order; only the ones
        before this one may become its parent (keeps the tree acyclic)."""
        me = self.inr.address
        self._earlier_inrs = active[: active.index(me)] if me in active else default

    def _pick_join_peer(self) -> None:
        if not self._joining:
            return
        if not self._join_rtts:
            if self._join_attempts < 3:
                self.inr.set_timer(1.0, self.begin_join)
            else:
                # No resolver answered: proceed alone; soft state heals
                # the overlay when connectivity returns.
                self._finish_join(peer=None)
            return
        peer = min(self._join_rtts, key=lambda a: (self._join_rtts[a], a))
        self._finish_join(peer=peer, rtt=self._join_rtts[peer])

    def _finish_join(self, peer: Optional[str], rtt: float = 0.0) -> None:
        self._joining = False
        if peer is not None:
            self._join_attempts = 0
            self._request_peering(peer, rtt)
        self.inr.active = True
        self.register()

    def _request_peering(self, peer: str, rtt: float) -> None:
        """Establish (or re-establish) the parent peering.

        The request is retried until the peer's accept arrives — on
        lossy wireless links a single lost datagram must not strand an
        INR outside the overlay (design goal iii, robustness).
        """
        self.neighbors.add(peer, rtt=rtt, is_parent=True)
        self._pending_peer = peer
        self._peer_attempts = 0
        self._send_peer_request(peer, rtt)

    def _send_peer_request(self, peer: str, rtt: float) -> None:
        inr = self.inr
        if self._pending_peer != peer:
            return
        self._peer_attempts += 1
        if self._peer_attempts > 5:
            self._pending_peer = None
            self.begin_join()
            return
        inr.send(peer, INR_PORT, PeerRequest(inr.address, measured_rtt=rtt))
        inr.discovery.send_full_table(peer)
        inr.set_timer(1.0, self._send_peer_request, peer, rtt)

    def register(self) -> None:
        """Tell the DSR which vspaces this resolver routes."""
        inr = self.inr
        if inr.dsr_address is not None:
            inr.tell_dsr(DsrRegisterActive(inr.address, inr.vspaces))

    def heartbeat(self) -> None:
        inr = self.inr
        if inr.active:
            inr.tell_dsr(DsrHeartbeat(inr.address, inr.vspaces))

    # ------------------------------------------------------------------
    # Peering
    # ------------------------------------------------------------------
    def _handle_peer_request(self, request: PeerRequest, source: str) -> None:
        inr = self.inr
        self.neighbors.add(request.requester, rtt=request.measured_rtt)
        self.neighbors.heard_from(request.requester, inr.now)
        # A peering (re-)request starts a fresh conversation: the
        # requester may be a restarted incarnation with no memory of
        # our sequence numbers. Reset so the full table below goes
        # out under a new epoch from sequence 1, which the peer can
        # always accept.
        inr.discovery.reset_channel(request.requester)
        inr.send(request.requester, INR_PORT, PeerAccept(inr.address))
        inr.discovery.send_full_table(request.requester)

    def _handle_peer_accept(self, accept: PeerAccept, source: str) -> None:
        self.neighbors.heard_from(accept.accepter, self.inr.now)
        if accept.accepter == self._pending_peer:
            self._pending_peer = None

    def _handle_peer_goodbye(self, goodbye: PeerGoodbye, source: str) -> None:
        self._drop_neighbor(goodbye.sender)

    def _drop_neighbor(self, address: str) -> None:
        inr = self.inr
        neighbor = self.neighbors.remove(address)
        if neighbor is None:
            return
        inr.discovery.flush_routes_via(address)
        if neighbor.is_parent and inr.dsr_address is not None:
            self.begin_join()

    def sweep(self) -> None:
        """Liveness: drop neighbors (and forget pings) silent for
        ``neighbor_timeout``, and keep a lonely resolver rejoining."""
        inr = self.inr
        cutoff = inr.now - inr.config.neighbor_timeout
        for neighbor in self.neighbors.silent_since(cutoff):
            self._drop_neighbor(neighbor.address)
        # A reply this late would come from a peer already declared dead.
        for token, (_address, sent_at, _purpose) in list(self._pending_pings.items()):
            if sent_at < cutoff:
                del self._pending_pings[token]
        if (
            inr.active
            and len(self.neighbors) == 0
            and inr.dsr_address is not None
            and not self._joining
            and self._pending_peer is None
        ):
            # A lonely resolver (lost handshakes, dead peers) keeps
            # trying to rejoin the overlay; if it really is the only
            # INR in the domain this is a cheap no-op.
            self.begin_join()

    # ------------------------------------------------------------------
    # INR-pings
    # ------------------------------------------------------------------
    def _ping(self, address: str, purpose: str) -> None:
        inr = self.inr
        request = PingRequest(
            probe=_PING_PROBE, reply_to=inr.address, reply_port=inr.port
        )
        self._pending_pings[request.token] = (address, inr.now, purpose)
        inr.send(address, INR_PORT, request)

    def _handle_ping_request(self, request: PingRequest, source: str) -> None:
        self.inr.send(
            request.reply_to,
            request.reply_port,
            PingResponse(token=request.token, responder=self.inr.address),
        )

    def _handle_ping_response(self, response: PingResponse, source: str) -> None:
        pending = self._pending_pings.pop(response.token, None)
        if pending is None:
            return
        address, sent_at, purpose = pending
        rtt = self.inr.now - sent_at
        if purpose == "join":
            self._join_rtts[address] = rtt
        elif purpose == "relax":
            self._maybe_switch_parent(address, rtt)
        # ("parent-refresh": relaxation re-measures the parent link, so a
        # degraded path is seen at its current cost.)
        neighbor = self.neighbors.get(address)
        if neighbor is not None:
            neighbor.observe_rtt(rtt)

    # ------------------------------------------------------------------
    # Overlay relaxation (extension: Section 2.4 future work)
    # ------------------------------------------------------------------
    def relax(self) -> None:
        inr = self.inr
        parent = self.neighbors.parent
        if inr.active and parent is not None:
            self._ping(parent.address, purpose="parent-refresh")
            inr.tell_dsr(DsrListRequest(reply_to=inr.address, reply_port=inr.port))

    def _relax_with_list(self, response: DsrListResponse) -> None:
        self._note_order(response.active, default=self._earlier_inrs)
        parent = self.neighbors.parent
        if parent is None or not self._earlier_inrs:
            return
        candidates = [
            a
            for a in self._earlier_inrs
            if a != parent.address and a not in self.neighbors
        ]
        if not candidates:
            return
        probe = self.inr.sim.rng.choice(candidates)
        self._ping(probe, purpose="relax")

    def _maybe_switch_parent(self, candidate: str, rtt: float) -> None:
        inr = self.inr
        parent = self.neighbors.parent
        if parent is None or candidate == parent.address:
            return
        if rtt >= parent.rtt * RELAXATION_IMPROVEMENT:
            return
        # Better parent found: swap the tree edge. Only earlier-ordered
        # INRs are probed, so the topology remains acyclic.
        inr.send(parent.address, INR_PORT, PeerGoodbye(inr.address))
        self.neighbors.remove(parent.address)
        inr.discovery.flush_routes_via(parent.address)
        self._request_peering(candidate, rtt)

    HANDLERS = {
        PingRequest: (_handle_ping_request, cost_ping),
        PingResponse: (_handle_ping_response, cost_receive),
        PeerRequest: (_handle_peer_request, cost_receive),
        PeerAccept: (_handle_peer_accept, cost_receive),
        PeerGoodbye: (_handle_peer_goodbye, cost_receive),
        DsrListResponse: (_handle_dsr_list, cost_receive),
    }
