"""The Domain Space Resolver (Section 2.4).

The DSR is the one well-known entity in an INS domain — the paper likens
it to an extension of the domain's DNS server. It maintains:

- the **active list**: INRs currently in the overlay, in the order they
  became active. This linear order is what makes the self-configured
  topology a spanning tree: every joiner peers with exactly one INR
  already on the list.
- the **candidate list**: nodes that can host a spawned INR when an
  active one overloads (Section 2.5). Claims remove the candidate so
  two resolvers never spawn onto the same node.
- the **vspace map**: which resolvers route each virtual space, used to
  forward requests for spaces the local INR does not route.

Registrations are soft state: active INRs heartbeat and silent ones are
expired, so a crashed resolver disappears from the list on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..message.dsr import (
    DsrClaimCandidate,
    DsrClaimResponse,
    DsrDeregister,
    DsrHeartbeat,
    DsrListRequest,
    DsrListResponse,
    DsrRegisterActive,
    DsrRegisterCandidate,
    DsrReplicate,
    DsrVspaceRequest,
    DsrVspaceResponse,
)
from ..netsim import Node, Process
from ..resolver.ports import DSR_PORT, INR_PORT

#: How long a registration lives without a heartbeat.
DEFAULT_REGISTRATION_LIFETIME = 45.0


@dataclass
class _ActiveEntry:
    address: str
    vspaces: Tuple[str, ...]
    expires_at: float


@dataclass
class _ClaimTaken:
    """Replicated notice that a candidate node was granted."""

    candidate: str

    def wire_size(self) -> int:
        return 28 + len(self.candidate)


class DomainSpaceResolver(Process):
    """The DSR process; binds the well-known DSR port on its node."""

    def __init__(
        self,
        node: Node,
        registration_lifetime: float = DEFAULT_REGISTRATION_LIFETIME,
        sweep_interval: float = 5.0,
        peers: Tuple[str, ...] = (),
    ) -> None:
        """``peers`` are replica DSR addresses: every state-changing
        message is forwarded to them (Section 2.4: the DSR "may be
        replicated for fault-tolerance"). Candidate claims remain
        single-writer in spirit — concurrent claims of the same node at
        two replicas can race, which soft state tolerates but operators
        should route claims at one replica.
        """
        super().__init__(node, DSR_PORT)
        self._lifetime = registration_lifetime
        #: insertion-ordered: the linear order of Section 2.4
        self._active: Dict[str, _ActiveEntry] = {}
        self._candidates: List[str] = []
        self._vspace_map: Dict[str, Set[str]] = {}
        self.queries_served = 0
        self._sweep_interval = sweep_interval
        self.peers: Tuple[str, ...] = tuple(peers)

    def add_peer(self, address: str) -> None:
        """Register another replica to mirror state changes to."""
        if address != self.address and address not in self.peers:
            self.peers = self.peers + (address,)

    # ------------------------------------------------------------------
    # State transfer (failover promotion)
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """A copyable view of the registration state, for promoting a
        standby after the primary dies."""
        return (
            tuple(
                (entry.address, entry.vspaces, entry.expires_at)
                for entry in self._active.values()
            ),
            tuple(self._candidates),
        )

    def adopt(self, snapshot: tuple) -> None:
        """Replace this DSR's state with ``snapshot`` (from a replica).

        Adopted registrations keep their expiry times: state the dead
        primary believed in is honored only as long as its soft-state
        lease, then the INRs' own heartbeats take over.
        """
        actives, candidates = snapshot
        self._active = {
            address: _ActiveEntry(address, tuple(vspaces), expires_at)
            for address, vspaces, expires_at in actives
        }
        self._candidates = list(candidates)
        self._vspace_map = {}
        for address, vspaces, _expires_at in actives:
            for vspace in vspaces:
                self._vspace_map.setdefault(vspace, set()).add(address)

    def start(self) -> None:
        self.every(self._sweep_interval, self._sweep_expired)

    # ------------------------------------------------------------------
    # Introspection (used by experiments and tests)
    # ------------------------------------------------------------------
    @property
    def registration_lifetime(self) -> float:
        """How long a registration lives without a heartbeat."""
        return self._lifetime

    @property
    def active_inrs(self) -> Tuple[str, ...]:
        """Active INR addresses, in activation (linear) order."""
        return tuple(self._active)

    @property
    def candidates(self) -> Tuple[str, ...]:
        return tuple(self._candidates)

    def resolvers_for(self, vspace: str) -> Tuple[str, ...]:
        return tuple(sorted(self._vspace_map.get(vspace, ())))

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, payload, source: str) -> None:
        replicated = isinstance(payload, DsrReplicate)
        if replicated:
            payload = payload.inner
        if isinstance(payload, DsrRegisterActive):
            self._register_active(payload.address, payload.vspaces)
            if not replicated:
                self._mirror(payload)
        elif isinstance(payload, DsrRegisterCandidate):
            if (
                payload.address not in self._candidates
                and payload.address not in self._active
            ):
                self._candidates.append(payload.address)
            if not replicated:
                self._mirror(payload)
        elif isinstance(payload, DsrDeregister):
            self._drop_active(payload.address)
            if not replicated:
                self._mirror(payload)
        elif isinstance(payload, DsrHeartbeat):
            self._register_active(payload.address, payload.vspaces)
            if not replicated:
                self._mirror(payload)
        elif isinstance(payload, DsrListRequest):
            self.queries_served += 1
            self.send(
                payload.reply_to,
                payload.reply_port,
                DsrListResponse(
                    request_id=payload.request_id,
                    active=self.active_inrs,
                    candidates=self.candidates,
                ),
            )
        elif isinstance(payload, DsrVspaceRequest):
            self.queries_served += 1
            self.send(
                payload.reply_to,
                payload.reply_port,
                DsrVspaceResponse(
                    request_id=payload.request_id,
                    vspace=payload.vspace,
                    resolvers=self.resolvers_for(payload.vspace),
                ),
            )
        elif isinstance(payload, DsrClaimCandidate):
            candidate = self._candidates.pop(0) if self._candidates else ""
            self.send(
                payload.reply_to,
                payload.reply_port,
                DsrClaimResponse(request_id=payload.request_id, candidate=candidate),
            )
            if candidate and not replicated:
                # Tell replicas the candidate is taken. A same-instant
                # claim at another replica can still race; spawner-side
                # idempotence absorbs it.
                self._mirror(_ClaimTaken(candidate))
        elif isinstance(payload, _ClaimTaken):
            if payload.candidate in self._candidates:
                self._candidates.remove(payload.candidate)
            if not replicated:
                self._mirror(payload)

    def _mirror(self, payload) -> None:
        for peer in self.peers:
            self.send(peer, DSR_PORT, DsrReplicate(origin=self.address,
                                                   inner=payload))

    # ------------------------------------------------------------------
    # Registration state
    # ------------------------------------------------------------------
    def _register_active(self, address: str, vspaces: Tuple[str, ...]) -> None:
        expires = self.now + self._lifetime
        entry = self._active.get(address)
        if entry is None:
            # A node promoted from candidate stops being spawnable.
            if address in self._candidates:
                self._candidates.remove(address)
            self._active[address] = _ActiveEntry(address, tuple(vspaces), expires)
        else:
            entry.expires_at = expires
            if tuple(vspaces) != entry.vspaces:
                self._unmap_vspaces(address, entry.vspaces)
                entry.vspaces = tuple(vspaces)
        for vspace in vspaces:
            self._vspace_map.setdefault(vspace, set()).add(address)

    def _drop_active(self, address: str) -> None:
        entry = self._active.pop(address, None)
        if entry is not None:
            self._unmap_vspaces(address, entry.vspaces)

    def _unmap_vspaces(self, address: str, vspaces: Tuple[str, ...]) -> None:
        for vspace in vspaces:
            resolvers = self._vspace_map.get(vspace)
            if resolvers is not None:
                resolvers.discard(address)
                if not resolvers:
                    del self._vspace_map[vspace]

    def _sweep_expired(self) -> None:
        now = self.now
        for address in [a for a, e in self._active.items() if e.expires_at <= now]:
            self._drop_active(address)
