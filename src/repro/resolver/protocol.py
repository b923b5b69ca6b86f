"""Control-plane message types exchanged by services, clients, INRs and
the DSR.

Each message knows its approximate wire size so the simulator can charge
links for the bandwidth the real system would consume. The numbers
follow the paper's measurements: randomly generated intentional names
averaged 82 bytes, and each name in an update also carries addresses,
metrics and the AnnouncerID (Section 2.2 lists the update contents).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..message import InsMessage
from ..naming import NameSpecifier
from ..nametree import AnnouncerID, Endpoint
from ..obs import TRACE_CONTEXT_SIZE, TraceContext

#: Fixed per-message overhead we charge for any control datagram
#: (UDP/IP headers plus message framing).
BASE_OVERHEAD = 28

#: Extra bytes per name in an update beyond the name text itself:
#: endpoints, metrics, lifetime and the AnnouncerID (Section 2.2).
PER_NAME_OVERHEAD = 30


def _fresh_request_id() -> int:
    return next(_REQUEST_IDS)


_REQUEST_IDS = itertools.count(1)


@dataclass(frozen=True)
class NameUpdate:
    """Everything an INR update says about one name (Section 2.2).

    ``route_metric`` is the announcing path's cumulative overlay metric
    as seen by the *sender* of the update; the receiver adds its own
    link cost to the sender (distributed Bellman-Ford).

    Immutable, and sized once, when built: a sender keeps the object
    for as long as it says the same thing and a receiver recognises it
    by identity (``NameTree.rehear``), which stands for the equality of
    the bytes a socket INR would have decoded.
    """

    # By hand: the dataclass ``slots`` flag needs Python 3.10.
    __slots__ = (
        "name", "announcer", "endpoints", "anycast_metric", "route_metric",
        "lifetime", "vspace", "_size",
    )

    name: NameSpecifier
    announcer: AnnouncerID
    endpoints: Tuple[Endpoint, ...]
    anycast_metric: float
    route_metric: float
    lifetime: float
    vspace: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_size",
            self.name.wire_size() + PER_NAME_OVERHEAD + 12 * len(self.endpoints),
        )

    def wire_size(self) -> int:
        return self._size


@dataclass
class UpdateBatch:
    """A periodic or triggered batch of name updates between INRs."""

    sender: str
    updates: List[NameUpdate]
    triggered: bool = False

    def wire_size(self) -> int:
        return BASE_OVERHEAD + sum([update.wire_size() for update in self.updates])


@dataclass(frozen=True)
class Advertisement:
    """A service's periodic announcement of its intentional name.

    ``triggered`` marks announcements that carry *new* state (first
    advertisement after attaching, a metric change, a rename) as
    opposed to periodic soft-state refreshes.

    Immutable, and sized once, when built: a service re-sends the
    object while it says the same thing, and a resolver recognises it by
    identity, as a ``NameUpdate``.
    """

    # By hand, as ``NameUpdate``'s; a slot cannot have a class default,
    # so ``triggered`` is always passed.
    __slots__ = (
        "name", "announcer", "endpoints", "anycast_metric", "lifetime", "triggered",
        "_size",
    )

    name: NameSpecifier
    announcer: AnnouncerID
    endpoints: Tuple[Endpoint, ...]
    anycast_metric: float
    lifetime: float
    triggered: bool

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_size",
            BASE_OVERHEAD + self.name.wire_size() + 12 * len(self.endpoints),
        )

    def wire_size(self) -> int:
        return self._size


@dataclass
class DiscoveryRequest:
    """Name discovery (Section 2.2): return all names matching a filter."""

    filter: NameSpecifier
    reply_to: str
    reply_port: int
    request_id: int = field(default_factory=_fresh_request_id)
    #: Optional trace context (PROTOCOL.md §9), carried like the data
    #: path's header extension so control-plane hops join the span tree.
    trace: Optional[TraceContext] = None

    def wire_size(self) -> int:
        return (
            BASE_OVERHEAD
            + self.filter.wire_size()
            + (TRACE_CONTEXT_SIZE if self.trace is not None else 0)
        )


@dataclass
class DiscoveryResponse:
    """The names (and their anycast metrics) matching a discovery filter."""

    request_id: int
    names: List[Tuple[NameSpecifier, float]]

    def wire_size(self) -> int:
        return BASE_OVERHEAD + sum(name.wire_size() + 8 for name, _ in self.names)


@dataclass
class ResolutionRequest:
    """Early binding: resolve a name to network locations (Section 2)."""

    name: NameSpecifier
    reply_to: str
    reply_port: int
    request_id: int = field(default_factory=_fresh_request_id)
    #: Optional trace context (PROTOCOL.md §9); see DiscoveryRequest.
    trace: Optional[TraceContext] = None

    def wire_size(self) -> int:
        return (
            BASE_OVERHEAD
            + self.name.wire_size()
            + (TRACE_CONTEXT_SIZE if self.trace is not None else 0)
        )


@dataclass
class ResolutionResponse:
    """The [ip, [port, transport]] list plus per-endpoint metrics.

    Metric-based selection over this list is the paper's richer
    alternative to round-robin DNS.
    """

    request_id: int
    bindings: List[Tuple[Endpoint, float]]

    def wire_size(self) -> int:
        return BASE_OVERHEAD + 20 * len(self.bindings)


@dataclass
class DataPacket:
    """An encoded INS data message (Figure 10 bytes) in flight.

    INRs decode the header and names to forward it but never touch the
    application data; we keep the raw bytes authoritative and cache the
    decoded form for the simulator's benefit.
    """

    raw: bytes
    _decoded: Optional[InsMessage] = field(default=None, repr=False, compare=False)

    def decode(
        self, name_of: Optional[Callable[[str], NameSpecifier]] = None
    ) -> InsMessage:
        """The decoded message. The first call does the decoding, with
        ``name_of`` as :meth:`InsMessage.decode` takes it; every later
        one, and :attr:`message`, is served that result."""
        if self._decoded is None:
            self._decoded = InsMessage.decode(self.raw, name_of)
        return self._decoded

    @property
    def message(self) -> InsMessage:
        return self.decode()

    def wire_size(self) -> int:
        return BASE_OVERHEAD + len(self.raw)


@dataclass
class NameWithdraw:
    """Explicit removal of a name (reliable-delta update mode only).

    Soft state never needs withdrawals — silence is the withdrawal —
    but the footnote-3 reliable mode eliminates periodic refreshes, so
    an origin INR must announce that a name died.
    """

    sender: str
    announcer: AnnouncerID
    vspace: str

    def wire_size(self) -> int:
        return BASE_OVERHEAD + 24 + len(self.vspace)


@dataclass
class PingRequest:
    """An INR-ping: a small name whose processing time is part of the
    measured round trip (Section 2.4)."""

    probe: NameSpecifier
    reply_to: str
    reply_port: int
    token: int = field(default_factory=_fresh_request_id)

    def wire_size(self) -> int:
        return BASE_OVERHEAD + self.probe.wire_size()


@dataclass
class PingResponse:
    token: int
    responder: str

    def wire_size(self) -> int:
        return BASE_OVERHEAD


@dataclass
class PeerRequest:
    """Ask an INR to become an overlay neighbor (spanning-tree join).

    Carries the requester's INR-ping measurement of the path so both
    ends start from the same overlay metric (links are symmetric here).
    """

    requester: str
    measured_rtt: float = 1.0

    def wire_size(self) -> int:
        return BASE_OVERHEAD


@dataclass
class PeerAccept:
    accepter: str

    def wire_size(self) -> int:
        return BASE_OVERHEAD


@dataclass
class PeerGoodbye:
    """An INR leaving the overlay (self-termination on low load)."""

    sender: str

    def wire_size(self) -> int:
        return BASE_OVERHEAD


__all__ = [
    "Advertisement",
    "NameWithdraw",
    "BASE_OVERHEAD",
    "DataPacket",
    "DiscoveryRequest",
    "DiscoveryResponse",
    "NameUpdate",
    "PER_NAME_OVERHEAD",
    "PeerAccept",
    "PeerGoodbye",
    "PeerRequest",
    "PingRequest",
    "PingResponse",
    "ResolutionRequest",
    "ResolutionResponse",
    "UpdateBatch",
]
