"""A DNS-flavoured baseline directory service.

The paper repeatedly contrasts INS with the Internet DNS: hostname ->
address mappings, manual (explicit) registration and de-registration,
client-side caching with TTLs, and round-robin selection among multiple
records ("this metric-based resolution is richer than round-robin DNS
resolution", Section 2). This module implements that baseline faithfully
enough to measure the contrast:

- a central :class:`DnsDirectory` mapping flat hostnames to address
  records; entries are hard state — they change only on explicit
  re-registration, never by timeout;
- :class:`DnsClient` resolves names, caches answers for the record TTL
  and rotates round-robin through multi-record answers;
- :class:`DnsRegisteredService` registers itself once at startup, like
  a statically configured server.

The ``dns-mobility`` spec of ``repro.xp.default_suite()`` runs the
same mobility scenario against INS and against this baseline: INS's
soft state and late binding recover automatically, the DNS baseline
keeps handing out the stale cached address until the TTL expires *and*
someone re-registers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..nametree import Endpoint
from ..netsim import Node, Process

#: Well-known port of the directory server.
DNS_PORT = 5353

_REQUEST_IDS = itertools.count(1)


@dataclass
class DnsRegister:
    hostname: str
    endpoint: Endpoint
    ttl: float
    #: stable identity of the registrant, so a re-registration from a
    #: new address REPLACES the stale record instead of adding to it
    owner: str = ""

    def wire_size(self) -> int:
        return 28 + len(self.hostname) + len(self.owner) + 16


@dataclass
class DnsQuery:
    hostname: str
    reply_to: str
    reply_port: int
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    def wire_size(self) -> int:
        return 28 + len(self.hostname)


@dataclass
class DnsAnswer:
    request_id: int
    hostname: str
    records: Tuple[Endpoint, ...]
    ttl: float

    def wire_size(self) -> int:
        return 28 + len(self.hostname) + 16 * len(self.records)


class DnsDirectory(Process):
    """The authoritative server: flat names, hard state."""

    def __init__(self, node: Node, default_ttl: float = 60.0) -> None:
        super().__init__(node, DNS_PORT)
        self.default_ttl = default_ttl
        self._records: Dict[str, List[Tuple[Endpoint, float, str]]] = {}
        self.queries_served = 0

    def records_for(self, hostname: str) -> Tuple[Endpoint, ...]:
        return tuple(
            endpoint for endpoint, _, _ in self._records.get(hostname, [])
        )

    def handle_message(self, payload, source: str) -> None:
        if isinstance(payload, DnsRegister):
            records = self._records.setdefault(payload.hostname, [])
            owner = payload.owner or str(payload.endpoint)
            records[:] = [
                (e, t, o) for e, t, o in records
                if o != owner and e != payload.endpoint
            ]
            records.append((payload.endpoint, payload.ttl, owner))
        elif isinstance(payload, DnsQuery):
            self.queries_served += 1
            entries = self._records.get(payload.hostname, [])
            ttl = min((t for _, t, _ in entries), default=self.default_ttl)
            self.send(
                payload.reply_to,
                payload.reply_port,
                DnsAnswer(
                    request_id=payload.request_id,
                    hostname=payload.hostname,
                    records=tuple(e for e, _, _ in entries),
                    ttl=ttl,
                ),
            )


@dataclass
class _CacheEntry:
    records: Tuple[Endpoint, ...]
    expires_at: float
    next_index: int = 0


class DnsClient(Process):
    """A stub resolver with TTL caching and round-robin selection."""

    def __init__(self, node: Node, port: int, directory: str) -> None:
        super().__init__(node, port)
        self.directory = directory
        self._cache: Dict[str, _CacheEntry] = {}
        self._pending: Dict[int, Tuple[str, object]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def resolve(self, hostname: str):
        """Resolve ``hostname``; returns a Reply of Optional[Endpoint].

        Cached answers are served until their TTL expires — including
        stale ones, exactly the failure mode late binding avoids.
        """
        from ..client.futures import Reply

        reply = Reply()
        entry = self._cache.get(hostname)
        if entry is not None and entry.expires_at > self.now:
            self.cache_hits += 1
            reply.resolve(self._pick(entry))
            return reply
        self.cache_misses += 1
        query = DnsQuery(hostname=hostname, reply_to=self.address,
                         reply_port=self.port)
        self._pending[query.request_id] = (hostname, reply)
        self.send(self.directory, DNS_PORT, query)
        return reply

    def _pick(self, entry: _CacheEntry) -> Optional[Endpoint]:
        if not entry.records:
            return None
        endpoint = entry.records[entry.next_index % len(entry.records)]
        entry.next_index += 1
        return endpoint

    def handle_message(self, payload, source: str) -> None:
        if isinstance(payload, DnsAnswer):
            pending = self._pending.pop(payload.request_id, None)
            if pending is None:
                return
            hostname, reply = pending
            entry = _CacheEntry(
                records=payload.records, expires_at=self.now + payload.ttl
            )
            self._cache[hostname] = entry
            reply.resolve(self._pick(entry))


class DnsRegisteredService(Process):
    """A server registered in the directory, DNS-style: once, manually.

    Node mobility silently breaks it — nothing re-registers the new
    address unless the operator (the experiment) does so explicitly.
    That is the point of the baseline.
    """

    def __init__(self, node: Node, port: int, hostname: str, directory: str,
                 ttl: float = 60.0) -> None:
        super().__init__(node, port)
        self.hostname = hostname
        self.directory = directory
        self.ttl = ttl
        self.received: List[bytes] = []
        # Stable across address changes: it is how a re-registration
        # replaces this server's previous record.
        self._owner = f"{hostname}#{next(_REQUEST_IDS)}"

    def start(self) -> None:
        self.register()

    def register(self) -> None:
        self.send(
            self.directory,
            DNS_PORT,
            DnsRegister(
                hostname=self.hostname,
                endpoint=Endpoint(host=self.address, port=self.port),
                ttl=self.ttl,
                owner=self._owner,
            ),
        )

    def handle_message(self, payload, source: str) -> None:
        if isinstance(payload, bytes):
            self.received.append(payload)
