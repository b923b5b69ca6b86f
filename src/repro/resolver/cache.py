"""Application-independent packet caching at INRs (Section 3.2).

The paper's Camera application motivated letting INRs cache data
packets: intentional names are structured enough to serve as cache
handles without any application-specific knowledge. A packet whose
header carries a non-zero cache lifetime may have its data cached under
the packet's *source* name (the name of the object's producer); a later
request whose destination name matches a cached source name can be
answered from the cache without travelling to the origin.

We reuse a :class:`NameTree` as the cache index so cache lookups have
exactly the matching semantics of name resolution (wild-cards included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..naming import NameSpecifier
from ..nametree import AnnouncerID, NameRecord, NameTree


@dataclass
class CacheEntry:
    """One cached data object and its expiry.

    ``stored_at`` dates the data (freshness selection among multiple
    matches); ``last_used`` dates the entry's usefulness (LRU
    eviction). A lookup hit touches ``last_used`` only.
    """

    name: NameSpecifier
    data: bytes
    stored_at: float
    expires_at: float
    last_used: float = 0.0


class PacketCache:
    """An INR's cache of intentional-named data packets."""

    def __init__(self, max_entries: int = 128) -> None:
        self._index = NameTree(vspace="__cache__")
        self._entries: Dict[AnnouncerID, CacheEntry] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, name: NameSpecifier, data: bytes, now: float, lifetime: float) -> None:
        """Cache ``data`` under ``name`` for ``lifetime`` seconds.

        Names that are not concrete cannot index a cache entry and are
        ignored; so are zero/negative lifetimes (caching disallowed).
        """
        if lifetime <= 0 or not name.is_concrete() or name.is_empty:
            return
        # One entry per distinct name: replace any existing entry.
        existing = self._find_record(name)
        if existing is not None:
            entry = self._entries[existing.announcer]
            entry.data = data
            entry.stored_at = now
            entry.expires_at = now + lifetime
            entry.last_used = now
            self._index.set_expiry(existing, entry.expires_at)
            self.stores += 1
            return
        if len(self._entries) >= self._max_entries:
            self._evict_lru()
        announcer = AnnouncerID.generate("cache")
        record = NameRecord(announcer=announcer, expires_at=now + lifetime)
        self._index.insert(name, record)
        self._entries[announcer] = CacheEntry(
            name=name,
            data=data,
            stored_at=now,
            expires_at=now + lifetime,
            last_used=now,
        )
        self.stores += 1

    def lookup(self, query: NameSpecifier, now: float) -> Optional[CacheEntry]:
        """The freshest unexpired entry matching ``query``, or None."""
        self._expire(now)
        records = self._index.lookup(query)
        if not records:
            self.misses += 1
            return None
        best = max(records, key=lambda r: self._entries[r.announcer].stored_at)
        self.hits += 1
        entry = self._entries[best.announcer]
        entry.last_used = now
        return entry

    def _find_record(self, name: NameSpecifier) -> Optional[NameRecord]:
        for record in self._index.lookup(name):
            if self._entries[record.announcer].name == name:
                return record
        return None

    def _expire(self, now: float) -> None:
        for record in self._index.expire(now):
            self._entries.pop(record.announcer, None)

    def _evict_lru(self) -> None:
        victim = min(self._entries, key=lambda a: self._entries[a].last_used)
        self._entries.pop(victim)
        self._index.remove_announcer(victim)

    @property
    def index(self) -> NameTree:
        """The cache's index tree (read-only use: memo statistics)."""
        return self._index
