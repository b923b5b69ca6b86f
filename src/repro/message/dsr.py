"""Messages exchanged with the Domain Space Resolver (Section 2.4).

The DSR is the well-known entity that maintains the lists of active and
candidate INRs and, with virtual spaces (Section 2.5), the mapping from
a vspace to the resolvers routing it.

These are *wire* definitions, so they live in the ``message`` layer:
both the resolver (an INR registers, heartbeats, claims candidates) and
the overlay's DSR itself speak this protocol, and keeping it below both
is what makes the resolver -> overlay layer direction acyclic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Tuple

BASE_OVERHEAD = 28

_REQUEST_IDS = itertools.count(1)


def _fresh_request_id() -> int:
    return next(_REQUEST_IDS)


@dataclass
class DsrRegisterActive:
    """An INR joining the active list, declaring the vspaces it routes."""

    address: str
    vspaces: Tuple[str, ...]

    def wire_size(self) -> int:
        return BASE_OVERHEAD + 16 * len(self.vspaces)


@dataclass
class DsrRegisterCandidate:
    """A node volunteering to host a spawned INR later."""

    address: str

    def wire_size(self) -> int:
        return BASE_OVERHEAD


@dataclass
class DsrDeregister:
    """An INR leaving the active list (self-termination or shutdown)."""

    address: str

    def wire_size(self) -> int:
        return BASE_OVERHEAD


@dataclass
class DsrHeartbeat:
    """Soft-state refresh of an active INR's registration."""

    address: str
    vspaces: Tuple[str, ...]

    def wire_size(self) -> int:
        return BASE_OVERHEAD + 16 * len(self.vspaces)


@dataclass
class DsrListRequest:
    """Query for the currently active and candidate INRs."""

    reply_to: str
    reply_port: int
    request_id: int = field(default_factory=_fresh_request_id)

    def wire_size(self) -> int:
        return BASE_OVERHEAD


@dataclass
class DsrListResponse:
    """Active INRs (in activation order — the paper's linear order that
    makes the join topology a tree) and candidate nodes."""

    request_id: int
    active: Tuple[str, ...]
    candidates: Tuple[str, ...]

    def wire_size(self) -> int:
        return BASE_OVERHEAD + 16 * (len(self.active) + len(self.candidates))


@dataclass
class DsrVspaceRequest:
    """Which resolver(s) route this virtual space?"""

    vspace: str
    reply_to: str
    reply_port: int
    request_id: int = field(default_factory=_fresh_request_id)

    def wire_size(self) -> int:
        return BASE_OVERHEAD + len(self.vspace)


@dataclass
class DsrVspaceResponse:
    request_id: int
    vspace: str
    resolvers: Tuple[str, ...]

    def wire_size(self) -> int:
        return BASE_OVERHEAD + 16 * len(self.resolvers)


@dataclass
class DsrClaimCandidate:
    """Reserve a candidate node to spawn an INR on (Section 2.5).

    The DSR removes the granted candidate from its list so two loaded
    INRs cannot spawn onto the same node.
    """

    requester: str
    reply_to: str
    reply_port: int
    request_id: int = field(default_factory=_fresh_request_id)

    def wire_size(self) -> int:
        return BASE_OVERHEAD


@dataclass
class DsrClaimResponse:
    """The granted candidate address, or empty when none are left."""

    request_id: int
    candidate: str

    def wire_size(self) -> int:
        return BASE_OVERHEAD + len(self.candidate)


@dataclass
class DsrReplicate:
    """A state-changing DSR message forwarded to replica peers.

    The paper notes the DSR "may be replicated for fault-tolerance";
    replicas apply the inner message without re-forwarding it (no
    gossip loops). Registrations are soft state on every replica, so a
    missed replication heals at the next heartbeat.
    """

    origin: str
    inner: object

    def wire_size(self) -> int:
        sizer = getattr(self.inner, "wire_size", None)
        return BASE_OVERHEAD + (int(sizer()) if callable(sizer) else 0)


__all__ = [
    "DsrClaimCandidate",
    "DsrReplicate",
    "DsrClaimResponse",
    "DsrDeregister",
    "DsrHeartbeat",
    "DsrListRequest",
    "DsrListResponse",
    "DsrRegisterActive",
    "DsrRegisterCandidate",
    "DsrVspaceRequest",
    "DsrVspaceResponse",
]
