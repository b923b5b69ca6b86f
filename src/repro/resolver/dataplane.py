"""Resolution and the forwarding agent (Sections 2.3 and 2.5).

What an INR does *for a client*: answer early-binding and discovery
queries from the name-trees, and forward late-binding data messages by
intentional anycast or multicast — through the packet cache when the
message allows it, and toward the resolver of a foreign virtual space
when the name is not one this INR routes.
"""

from __future__ import annotations

import json
from typing import Collection, Dict, List, Optional, Sequence, Set

from ..message import Binding, Delivery, InsMessage
from ..message.dsr import DsrVspaceRequest, DsrVspaceResponse
from ..naming import VSPACE_ATTRIBUTE, NameSpecifier
from ..nametree import NameRecord, NameTree
from ..obs import DROP_PREFIX
from .cache import PacketCache
from .costs import cost_query, cost_receive
from .ports import INR_PORT
from .protocol import (
    DataPacket,
    DiscoveryRequest,
    DiscoveryResponse,
    ResolutionRequest,
    ResolutionResponse,
)


#: Bounds of the per-INR table of name-section texts already parsed
#: (:meth:`DataPlane.name_of`): how many texts, and how long (in
#: characters) a text may be to get in. Both, because a parsed name
#: weighs some 58 times its text (5.7 KB for a 98-byte name) — a count
#: alone would not bound the memory; together they cap it near 4 MB.
NAME_TABLE_CAPACITY = 256
NAME_TABLE_MAX_TEXT = 256

#: Maximum entries in the vspace -> resolver cache.
VSPACE_CACHE_SIZE = 32


def best_route(records: Collection[NameRecord]) -> NameRecord:
    """The anycast choice among matches: least application metric,
    then least route metric, then announcer (a total order, so the pick
    never depends on the order the lookup returned). A lone match is
    the choice, and no key is built for it."""
    if len(records) == 1:
        return next(iter(records))
    return min(
        records, key=lambda r: (r.anycast_metric, r.route.metric, str(r.announcer))
    )


class DataPlane:
    """Queries answered and payloads moved on behalf of clients."""

    def __init__(self, inr) -> None:
        self.inr = inr
        size = inr.config.packet_cache_size
        self.cache: Optional[PacketCache] = PacketCache(size) if size > 0 else None
        #: vspace -> a resolver that routes it, bounded at
        #: ``VSPACE_CACHE_SIZE`` (see :meth:`remember_vspace`)
        self._vspace_cache: Dict[str, str] = {}
        #: payloads (with their hop span) parked on a DSR answer
        self._vspace_waiting: Dict[str, List[tuple]] = {}
        #: name-section text -> the name it parsed to, for the texts no
        #: tree recognises (queries, group filters, unadvertised
        #: sources); bounded by the two NAME_TABLE constants
        self._names: Dict[str, NameSpecifier] = {}
        #: how :meth:`name_of` answered: from a tree, from the table,
        #: by parsing
        self.names_advertised = 0
        self.names_remembered = 0
        self.names_parsed = 0

    # ------------------------------------------------------------------
    # Early binding and discovery queries
    # ------------------------------------------------------------------
    def _bindings(self, tree: NameTree, name: NameSpecifier) -> List[tuple]:
        """``(endpoint, anycast metric)`` of every binding ``name`` resolves to."""
        return [
            (endpoint, record.anycast_metric)
            for record in tree.lookup(name)
            for endpoint in record.endpoints
        ]

    def _handle_resolution(self, request: ResolutionRequest, source: str) -> None:
        inr = self.inr
        span = inr.span_start("inr.resolve", request.trace)
        vspace = request.name.vspaces()[0]
        tree = inr.trees.get(vspace)
        if tree is None:
            self.forward_foreign(vspace, request, span=span)
            return
        stats = inr.stats
        stats.lookups += 1
        stats.queries_served += 1
        bindings = self._bindings(tree, request.name)
        if len(bindings) > 1:
            bindings.sort(key=lambda pair: (pair[1], pair[0]))
        inr.send(
            request.reply_to,
            request.reply_port,
            ResolutionResponse(request_id=request.request_id, bindings=bindings),
        )
        inr.span_end(span)

    def _handle_discovery(self, request: DiscoveryRequest, source: str) -> None:
        inr = self.inr
        span = inr.span_start("inr.discover", request.trace)
        if request.filter.root(VSPACE_ATTRIBUTE) is not None:
            # An explicit vspace constrains the search — and may need
            # forwarding to the resolver that routes it.
            vspace = request.filter.vspaces()[0]
            tree = inr.trees.get(vspace)
            if tree is None:
                self.forward_foreign(vspace, request, span=span)
                return
            searched = [tree]
        else:
            # Section 2.2: a discovery message matches against "all the
            # names it knows about" — every vspace this INR routes.
            searched = list(inr.trees.values())
        inr.stats.lookups += 1
        inr.stats.queries_served += 1
        names = []
        for tree in searched:
            names.extend(
                (tree.get_name(record), record.anycast_metric)
                for record in tree.lookup(request.filter)
            )
        # to_wire() is the cached text for every name already sized for
        # a send, which each retained name was when it was advertised.
        names.sort(key=lambda pair: pair[0].to_wire())
        inr.send(
            request.reply_to,
            request.reply_port,
            DiscoveryResponse(request_id=request.request_id, names=names),
        )
        inr.span_end(span)

    # ------------------------------------------------------------------
    # The forwarding agent: late binding (Section 2.3)
    # ------------------------------------------------------------------
    def name_of(self, text: str) -> NameSpecifier:
        """The name a packet's name section spells, parsed only if this
        incarnation has not understood these very bytes before.

        A text byte-equal to a name some tree here retains is that
        object (every tree is asked: the vspace is not known until the
        name is); any other text is parsed once and remembered while
        the table has room for it. Either way the answer is a sealed
        name. A text that does not parse raises out of here and is
        never remembered.
        """
        if not text:
            return NameSpecifier()
        for tree in self.inr.trees.values():
            name = tree.advertised(text)
            if name is not None:
                self.names_advertised += 1
                return name
        table = self._names
        name = table.get(text)
        if name is not None:
            self.names_remembered += 1
            return name
        name = NameSpecifier.parse(text)
        self.names_parsed += 1
        if len(text) <= NAME_TABLE_MAX_TEXT and name.cached_wire() == text:
            # Parsed, and compactly: the text is the name's own wire
            # form, which is what lets a frame carrying it be patched.
            if len(table) >= NAME_TABLE_CAPACITY:
                del table[next(iter(table))]
            table[text] = name
        return name

    def handle_data(self, packet: DataPacket, source: str, last: bool = True) -> None:
        """One data-plane hop: decode, open the hop span, charge the
        lookup and route. Dispatched as the last act of the packet's
        arrival, so the lookup's job may complete in place; custody's
        release loop, which hands over several packets in one event,
        passes ``last=False`` and the job is scheduled."""
        inr = self.inr
        try:
            message = packet.decode(self.name_of)
        except ValueError:
            # Malformed packet (bad header, unparsable names): a robust
            # resolver drops it rather than dying (design goal iii).
            # No span either — an undecodable frame has no context.
            inr.stats.drops_malformed += 1
            return
        span = inr.span_start("inr.hop", message.trace)
        vspace = message.destination.vspaces()[0]
        tree = inr.trees.get(vspace)
        if tree is None:
            inr.stats.packets_forwarded_foreign_vspace += 1
            self.forward_foreign(vspace, packet, span=span)
            return
        inr.stats.lookups += 1
        # Charge one LOOKUP-NAME per packet per INR, then route.
        (inr.work_last if last else inr.work)(
            inr.costs.lookup, self._route, tree, packet, source, span
        )

    def _route(
        self, tree: NameTree, packet: DataPacket, source: str, span=None
    ) -> None:
        inr = self.inr
        message = packet.message
        if message.binding is Binding.EARLY:
            # The B bit-flag (Figure 10): the sender wants the
            # name-to-location bindings back, not payload forwarding.
            self._answer_early_binding(tree, message, span)
            return
        cache = self.cache
        if cache is not None and message.accept_cached:
            entry = cache.lookup(message.destination, inr.now)
            if entry is not None:
                self._answer_from_cache(message, entry, span)
                return
        records = tree.lookup(message.destination)
        if cache is not None and message.wants_caching:
            if message.source.is_concrete() and not message.source.is_empty:
                cache.store(
                    message.source, message.data, inr.now, message.cache_lifetime
                )
        if not records:
            if inr.custodian.take(tree.vspace, packet, "no-route", span):
                return
            inr.stats.drops_no_route += 1
            inr.span_end(span, DROP_PREFIX + "no-route")
            return
        # lookup() returns a set; order the matches deterministically
        # before any scheduling/emission decision observes hash order.
        # A lone match has one order, and its announcer's string need
        # not be formatted.
        matches = list(records)
        if len(matches) > 1:
            matches.sort(key=lambda r: str(r.announcer))
        if message.delivery is Delivery.ANYCAST:
            self._route_anycast(tree, packet, matches, span)
        else:
            self._route_multicast(tree, packet, matches, arrived_from=source, span=span)

    def _answer_early_binding(
        self, tree: NameTree, message: InsMessage, span=None
    ) -> None:
        """Resolve the destination and send the [ip, [port, transport]]
        list (plus metrics) back to the requester's intentional name."""
        inr = self.inr
        if message.source.is_empty or not message.source.is_concrete():
            # Nowhere to send the answer: early binding over the data
            # path requires an addressable source name.
            inr.stats.drops_malformed += 1
            inr.span_end(span, DROP_PREFIX + "malformed")
            return
        bindings = [
            {"host": e.host, "port": e.port, "transport": e.transport, "metric": metric}
            for e, metric in self._bindings(tree, message.destination)
        ]
        bindings.sort(key=lambda b: (b["metric"], b["host"], b["port"]))
        inr.stats.queries_served += 1
        inr.span_end(span, "early-binding")
        self._reply(
            message, message.destination,
            json.dumps({"bindings": bindings}).encode("utf-8"),
        )

    def _answer_from_cache(
        self, message: InsMessage, entry, span=None
    ) -> None:
        """Reply to a request directly from the packet cache."""
        self.inr.stats.packets_answered_from_cache += 1
        self.inr.span_end(span, "cache-hit")
        self._reply(message, entry.name, entry.data)

    def _reply(self, request: InsMessage, source: NameSpecifier, data: bytes) -> None:
        """Answer ``request`` in band: a late-binding anycast to the
        requester's own intentional name, routed like any other packet.
        The last act of its caller's event, as a dispatched arrival is:
        the reply's hop may run in place, past this instant, so the
        answering span has ended already."""
        reply = InsMessage(
            destination=request.source,
            source=source,
            data=data,
            binding=Binding.LATE,
            delivery=Delivery.ANYCAST,
        )
        self.inr.handle_message(DataPacket(raw=reply.encode()), self.inr.address)

    def _route_anycast(
        self,
        tree: NameTree,
        packet: DataPacket,
        records: Sequence[NameRecord],
        span=None,
    ) -> None:
        inr = self.inr
        best = best_route(records)
        # The route's job is the last act of this hop's event.
        if best.route.is_local:
            self._deliver_local(tree, packet, best, span, last=True)
            return
        if inr.custodian.next_hop_suspect(best.route.next_hop):
            # The route exists but its next hop has gone silent —
            # forwarding would feed the payload to a dead link long
            # before the neighbor timeout flushes the route.
            if inr.custodian.take(tree.vspace, packet, "next-hop-suspect", span):
                return
        self._forward_to_inr(packet, best.route.next_hop, span, last=True)

    def _route_multicast(
        self,
        tree: NameTree,
        packet: DataPacket,
        records: Sequence[NameRecord],
        arrived_from: str,
        span=None,
    ) -> None:
        # Reverse-path rule: never forward a copy back over the link the
        # packet arrived on. The overlay is a tree, so this suffices to
        # keep the per-name shortest-path forwarding loop-free.
        # A multicast hop shares one span across its fan-out; the first
        # branch outcome settles the status (end_span is idempotent) and
        # the remaining branches land as annotations.
        next_hops: Set[str] = set()
        for record in records:
            if record.route.is_local:
                self._deliver_local(tree, packet, record, span)
            elif record.route.next_hop != arrived_from:
                next_hops.add(record.route.next_hop)
        for next_hop in sorted(next_hops):
            self.inr.span_note(span, f"multicast copy to {next_hop}")
            self._forward_to_inr(packet, next_hop, span)

    def _deliver_local(
        self, tree: NameTree, packet: DataPacket, record, span=None,
        last: bool = False,
    ) -> None:
        inr = self.inr
        if not record.endpoints:
            inr.stats.drops_no_endpoint += 1
            inr.span_end(span, DROP_PREFIX + "no-endpoint")
            return
        endpoint = record.endpoints[0]
        inr.stats.packets_delivered_locally += 1
        (inr.work_last if last else inr.work)(
            inr.costs.local_delivery(len(tree)),
            self._send, endpoint.host, endpoint.port, packet, span, "delivered",
        )

    def _forward_to_inr(
        self, packet: DataPacket, next_hop: str, span=None, last: bool = False
    ) -> None:
        inr = self.inr
        message = packet.message
        if message.hop_limit <= 0:
            inr.stats.drops_hop_limit += 1
            inr.span_end(span, DROP_PREFIX + "hop-limit")
            return
        # Re-parent the context so the next hop's span nests under this
        # one: the exported tree then mirrors the actual path.
        forwarded = DataPacket(
            raw=message.forwarded_frame(None if span is None else span.context)
        )
        inr.stats.packets_forwarded += 1
        (inr.work_last if last else inr.work)(
            inr.costs.forward, self._send, next_hop, INR_PORT, forwarded, span,
            "forwarded",
        )

    def _send(self, host: str, port: int, payload, span, status: str) -> None:
        """What a hop ends in, once its CPU cost is paid: the payload
        leaves and the hop span settles with ``status``."""
        self.inr.send(host, port, payload)
        self.inr.span_end(span, status)

    # ------------------------------------------------------------------
    # Foreign virtual spaces (Section 2.5)
    # ------------------------------------------------------------------
    def forward_foreign(self, vspace: str, payload: object, span=None) -> None:
        """Send ``payload`` on to a resolver that routes ``vspace``,
        asking the DSR for one first when none is remembered."""
        inr = self.inr
        inr.span_note(span, f"foreign vspace {vspace}")
        resolver = self._vspace_cache.get(vspace)
        if resolver is not None:
            self._forward_foreign_to(resolver, payload, span)
            return
        if inr.dsr_address is None:
            inr.stats.drops_foreign_vspace += 1
            inr.span_end(span, DROP_PREFIX + "foreign-vspace")
            return
        waiting = self._vspace_waiting.setdefault(vspace, [])
        waiting.append((payload, span))
        if len(waiting) == 1:
            inr.tell_dsr(
                DsrVspaceRequest(
                    vspace=vspace, reply_to=inr.address, reply_port=inr.port
                )
            )

    def _forward_foreign_to(self, resolver: str, payload: object, span) -> None:
        self.inr.work(
            self.inr.costs.vspace_forward,
            self._send, resolver, INR_PORT, payload, span, "forwarded-foreign",
        )

    def remember_vspace(self, vspace: str, resolver: str) -> None:
        """The one writer of the vspace -> resolver cache: evicts the
        oldest entry at ``VSPACE_CACHE_SIZE``."""
        cache = self._vspace_cache
        if len(cache) >= VSPACE_CACHE_SIZE:
            cache.pop(next(iter(cache)))
        cache[vspace] = resolver

    def _handle_vspace_response(
        self, response: DsrVspaceResponse, source: str
    ) -> None:
        inr = self.inr
        inr.load.tally_termination_vote(response)
        waiting = self._vspace_waiting.pop(response.vspace, [])
        if not response.resolvers:
            inr.stats.drops_foreign_vspace += len(waiting)
            for _payload, span in waiting:
                inr.span_end(span, DROP_PREFIX + "foreign-vspace")
            return
        resolver = response.resolvers[0]
        self.remember_vspace(response.vspace, resolver)
        for payload, span in waiting:
            self._forward_foreign_to(resolver, payload, span)

    HANDLERS = {
        DataPacket: (handle_data, cost_receive),
        ResolutionRequest: (_handle_resolution, cost_query),
        DiscoveryRequest: (_handle_discovery, cost_query),
        DsrVspaceResponse: (_handle_vspace_response, cost_receive),
    }
