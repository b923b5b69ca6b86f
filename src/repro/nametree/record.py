"""Name-records and their constituents (Section 2.3.1).

A name-record is what a name-tree lookup returns. It contains the
route to the next-hop INR for the announcer (with its overlay metric,
used by intentional multicast), the network locations of the potential
final destinations (returned on early binding), the announcer's
application-advertised metric (minimized by intentional anycast), the
record's soft-state expiration time and the AnnouncerID that
differentiates identical names announced by different applications.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Optional, Tuple

from ..naming import NameSpecifier

#: Default soft-state lifetime for a name-record, seconds. Records not
#: refreshed within one lifetime are discarded (Section 2.2).
DEFAULT_LIFETIME = 60.0


class AnnouncerID(NamedTuple):
    """Unique identifier of the application announcing a name.

    The paper's implementation concatenates the announcer's IP address
    with its startup time, allowing multiple instances of the same
    service on one node (Section 2.2).

    A tuple: every ``_by_announcer`` probe and every record-set
    operation hashes one, and a tuple is hashed in C —
    ``hash((host, startup_time))``, the same value a field-tuple hash
    gives, so dict and set layouts do not depend on the class.
    """

    host: str
    startup_time: float

    _sequence = itertools.count(1)

    @classmethod
    def generate(cls, host: str, startup_time: Optional[float] = None) -> "AnnouncerID":
        """Create an AnnouncerID for ``host``.

        When ``startup_time`` is not given a process-unique monotonic
        sequence number stands in for it, which preserves the uniqueness
        property the paper relies on without consulting a wall clock.
        """
        if startup_time is None:
            startup_time = float(next(cls._sequence))
        return cls(host=host, startup_time=startup_time)

    def __str__(self) -> str:
        # Anycast ties are broken on this string: ``:g`` keeps six
        # digits, and gives way to ``repr`` where it would round.
        text = f"{self.startup_time:g}"
        if float(text) != self.startup_time:
            text = repr(self.startup_time)
        return f"{self.host}@{text}"


class Endpoint(NamedTuple):
    """A network location of a final destination.

    Updates carry, for each IP address, a set of [port-number,
    transport-type] pairs so clients can implement early binding
    (Section 2.2); we flatten to one endpoint per (host, port,
    transport) triple.

    A tuple, as ``AnnouncerID``: one per record and per message, and no
    instance dict. It orders, equals and hashes as its field tuple.
    """

    host: str
    port: int = 0
    transport: str = "udp"

    def __str__(self) -> str:
        return f"{self.transport}://{self.host}:{self.port}"


class Route(NamedTuple):
    """The next-hop INR for a record and the overlay metric of the path.

    ``next_hop`` is None for records announced by a directly-attached
    application; the metric is then zero by definition. A tuple, as
    ``Endpoint``: it equals and hashes as ``(next_hop, metric)``.
    """

    next_hop: Optional[str]
    metric: float = 0.0

    @property
    def is_local(self) -> bool:
        return self.next_hop is None

    def __str__(self) -> str:
        hop = self.next_hop if self.next_hop is not None else "<local>"
        return f"Route(via={hop}, metric={self.metric:g})"


LOCAL_ROUTE = Route(next_hop=None, metric=0.0)


class NameRecord:
    """The resolver-side state for one announced name.

    Mutable on purpose: refreshes update endpoints, metrics, routes and
    expiry in place so every leaf value-node pointer stays valid. Once
    grafted, the owning ``NameTree`` is the only writer: it keeps a
    bound on ``expires_at`` (``NameTree.rehear`` and
    ``NameTree.set_expiry``) and drops ``kept_update`` with every
    payload store (``NameTree.refresh``).

    Slotted: a domain holds one per name per resolver.
    """

    __slots__ = (
        "announcer", "endpoints", "anycast_metric", "route", "expires_at", "vspace",
        "attachments", "slot", "advertised_name", "kept_update", "heard", "_hash_cache",
    )

    def __init__(
        self,
        announcer: AnnouncerID,
        endpoints: Iterable[Endpoint] = (),
        anycast_metric: float = 0.0,
        route: Route = LOCAL_ROUTE,
        expires_at: float = math.inf,
        vspace: str = "default",
        advertised_name: Optional[NameSpecifier] = None,
    ) -> None:
        self.announcer = announcer
        #: A tuple, never copied: the one of the message the record was
        #: built or refreshed from, when it came in one.
        self.endpoints: Tuple[Endpoint, ...] = tuple(endpoints)
        self.anycast_metric = anycast_metric
        self.route = route
        self.expires_at = expires_at
        self.vspace = vspace
        #: Leaf value-nodes of this record's name in its tree, fixed at
        #: graft; maintained by NameTree.insert/remove, read by GET-NAME.
        self.attachments: tuple = ()
        #: This record's slot in its tree: the bit it sets in the bitmap
        #: of each of its leaf value-nodes. Taken at graft, freed (None)
        #: by NameTree.remove.
        self.slot: Optional[int] = None
        #: The name-specifier that was grafted — sealed, like every keyed
        #: name, and shared with whoever sent it — kept so GET-NAME returns
        #: it instead of re-tracing Figure 6 on every refresh round, and so
        #: a refresh can detect "same name again" by identity. None while
        #: the record is not grafted anywhere.
        self.advertised_name = advertised_name
        #: What the owning resolver's last full table said about this
        #: record (a ``NameUpdate``; opaque here), kept to be said again at
        #: the next round. The tree clears it at every store to
        #: ``endpoints``, ``anycast_metric`` or ``route`` and at every
        #: graft, so while it is there it says what the record says.
        self.kept_update: Optional[object] = None
        #: The message (an ``Advertisement`` or ``NameUpdate``; opaque here)
        #: the payload was last compared with and written from, shared by
        #: reference with its sender: hearing the same object again can only
        #: move the deadline (``NameTree.rehear``). ``NameTree.refresh`` is
        #: its one writer.
        self.heard: Optional[object] = None
        #: Memoized __hash__. Records live in many sets (lookup results,
        #: memoized results, resolver bookkeeping) and set operations probe
        #: hashes constantly; recomputing the announcer/vspace tuple hash
        #: per probe would dominate building a lookup's result set. Filled on
        #: first use, which happens no earlier than grafting — after
        #: ``vspace`` is finalized by the owning tree.
        self._hash_cache: Optional[int] = None

    def __hash__(self) -> int:
        cached = self._hash_cache
        if cached is None:
            cached = hash((self.announcer, self.vspace))
            self._hash_cache = cached
        return cached

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:
        return (
            f"NameRecord(announcer={self.announcer!r}, endpoints={self.endpoints!r}, "
            f"anycast_metric={self.anycast_metric!r}, route={self.route!r}, "
            f"expires_at={self.expires_at!r}, vspace={self.vspace!r})"
        )
