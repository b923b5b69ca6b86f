"""The name-tree and its two central algorithms (Section 2.3).

``NameTree`` stores the superposition of every name-specifier an INR
knows about and maps each to its name-record. ``lookup`` implements
LOOKUP-NAME (Figure 5) and ``get_name`` implements GET-NAME (Figure 6:
it answers with the grafted name-specifier kept on the record — a
sealed value — which the literal trace rebuilds equal, sibling order
included).
Grafting (``insert``), soft-state expiry (``expire``) and branch pruning
keep the structure consistent as advertisements come and go.

The tree alone decides whether a record is alive (Section 2.2): every
read and write hides a record whose deadline is not after the clock the
tree is given, collected by ``expire`` or not; ``expire`` only reclaims it.

Beyond the paper, ``lookup`` memoizes its results (see
``NameTree.__init__``): query resolution at scale is dominated by
repeated queries over a record set that changes far less often than it
is read, so results are cached under the query's canonical key and the
whole memo is flushed when a tree *epoch* counter advances. The epoch
moves only on membership changes — graft, remove, expiry — never on a
pure refresh, so periodic soft-state refreshes keep the memo warm.

One implementation note on the hot path: each record holds a *slot* in
its tree, and a value-node's records are one ``int`` bitmap of their
slots (stored from the node's lowest slot up), so LOOKUP-NAME's
intersections and unions are C-level ``&`` and ``|`` on ints, and the
result is decoded into records once. It runs iteratively over an
explicit frame stack (names of any depth resolve without recursion) and
reads interior value-nodes' subtree bitmaps through an epoch-keyed
cache (:meth:`.nodes.ValueNode.subtree_bits`), so repeated distinct
queries against an unchanged record set stop re-walking subtrees.

One fidelity note on LOOKUP-NAME: the paper states that omitted
attributes correspond to wild-cards for both queries and advertisements.
When a query av-pair is a leaf but the matched value-node is not (the
advertisement is more specific than the query), we therefore intersect
with all records in the value-node's *subtree*; Figure 5's prose says
"the name-records of Tv", and Figure 4's caption says value-nodes point
to all records they correspond to, which is the same set.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress, count
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..naming import AVPair, NameSpecifier, classify_value
from .nodes import ValueNode
from .record import LOCAL_ROUTE, AnnouncerID, Endpoint, NameRecord, Route

#: A shared always-empty cursor. The iterative LOOKUP-NAME assigns it to
#: a frame whose candidates just became empty, which ends that
#: frame's pair loop without a per-pair emptiness test.
_EXHAUSTED: Iterator[AVPair] = iter(())

#: ``array("Q")`` reads a word's bytes in the host's order; a lookup's
#: answer is cut into words little-endian.
_BIG_ENDIAN = sys.byteorder == "big"

#: Maps a binary digit's byte to a ``compress`` selector (0 or 1).
_DIGIT_TO_SELECTOR = bytes.maketrans(b"01", b"\0\1")

#: Result sets the LOOKUP-NAME memo holds beyond one per record before
#: it evicts the least recently used: room for every record's own name
#: plus this many queries no record's name answers (group filters,
#: publisher names, absent names).
MEMO_CAPACITY = 1024

#: Distinct routes a tree keeps shared before it starts its table
#: afresh (see :meth:`NameTree.route`): far more than the few next hops
#: and path metrics a resolver's records route by.
ROUTE_CAPACITY = 256


def _before_every_deadline() -> float:
    """The clock of a tree no resolver owns: it shows all it holds."""
    return -math.inf


@dataclass(frozen=True)
class InsertOutcome:
    """What an insert did, for the discovery protocol's benefit.

    ``created`` — the announcer was previously unknown here.
    ``changed`` — the record carries new information (new name, new
    endpoints, better metric, ...) and must trigger an update to
    neighbor INRs; a pure periodic refresh leaves it False.
    """

    record: NameRecord
    created: bool
    changed: bool


class NameTree:
    """A per-virtual-space superposition of name-specifiers."""

    def __init__(
        self,
        vspace: str = "default",
        memoize: bool = True,
        clock: Callable[[], float] = _before_every_deadline,
    ) -> None:
        """Attribute and value children are found by hashing (the
        implementation the paper measures, Section 5.1.1). ``memoize``
        enables the LOOKUP-NAME memo: an LRU of ``lookup()`` result
        sets keyed by the query's canonical key, bounded at
        ``MEMO_CAPACITY`` plus one entry per record, and invalidated
        wholesale whenever the tree's record *set* changes (pure
        refreshes keep it warm).

        Every grafted record holds a slot, and a value-node's records are
        the bitmap of their slots. The slot table and its free list never
        hold more entries than the tree's peak live record count: a graft
        appends a slot only when none is free. A value-node's bitmap spans
        its lowest to its highest slot, so no bitmap is wider than that
        peak either.

        ``clock`` is the time deadlines are read against (a resolver's
        trees pass its simulator's): a record whose ``expires_at`` is not
        after it is absent for every read and write, held or not.
        """
        self.vspace = vspace
        self._clock = clock
        self._root = ValueNode(value=None, parent=None)
        self._by_announcer: Dict[AnnouncerID, NameRecord] = {}
        # The record in each slot (None once freed) and the freed slots,
        # the last freed reused first.
        self._slots: List[Optional[NameRecord]] = []
        self._free: List[int] = []
        # Retained names by their compact wire text (see advertised()):
        # written by _graft, dropped by remove, never more entries than
        # records. A name grafted unsized is not in it.
        self._by_text: Dict[str, NameSpecifier] = {}
        # One Route per distinct (next_hop, metric) its records hold,
        # local records' LOCAL_ROUTE among them (see route()).
        self._routes: Dict[Route, Route] = {LOCAL_ROUTE: LOCAL_ROUTE}
        # A lower bound on every record's ``expires_at``: lowered by
        # set_expiry(), through which every deadline write goes, and
        # recomputed by the expire() scan it lets most sweeps skip.
        self._earliest_expiry = math.inf
        # LOOKUP-NAME memo. The epoch counter advances only on
        # membership changes (graft, remove, expire); the memo is
        # flushed lazily at the next lookup that observes a newer
        # epoch, so a burst of mutations costs one flush, not many.
        self._memoize = memoize
        self._memo: "OrderedDict[tuple, FrozenSet[NameRecord]]" = OrderedDict()
        self._memo_epoch = 0
        self._epoch = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0
        self.memo_evictions = 0

    # ------------------------------------------------------------------
    # Grafting and removal
    # ------------------------------------------------------------------
    def route(self, next_hop: Optional[str], metric: float) -> Route:
        """The ``Route`` for a record of this tree to hold: one object per
        distinct ``(next_hop, metric)``, since a resolver's records route
        through a few neighbors at a few path metrics, and
        ``LOCAL_ROUTE`` for a directly-attached announcer. Equal routes
        are interchangeable values, so the table, bounded at
        ``ROUTE_CAPACITY``, is simply started afresh when full."""
        routes = self._routes
        # A Route hashes and equals as its field tuple: a plain tuple
        # probes the table without building a Route.
        route = routes.get((next_hop, metric))
        if route is None:
            if len(routes) >= ROUTE_CAPACITY:
                routes.clear()
                routes[LOCAL_ROUTE] = LOCAL_ROUTE
            route = Route(next_hop, metric)
            routes[route] = route
        return route

    def rehear(
        self,
        record: NameRecord,
        message: object,
        next_hop: Optional[str],
        route_metric: float,
        expires_at: float,
    ) -> bool:
        """Recognise ``message`` as the very one ``record``'s payload
        was last written from, and if so move the deadline: True, and
        nothing compared or built. False touches nothing.

        ``message`` is an ``Advertisement`` or ``NameUpdate``, immutable
        once sent, offered with its own endpoints tuple. It says nothing
        new when it **is** ``NameRecord.heard`` (which is stored only
        after a message's own endpoints), carries the grafted name
        object, and ``next_hop`` and ``route_metric`` — the receiver's
        own terms — equal the stored route. This is the one statement
        of that rule; the resolver asks it first, of the live record
        ``record_for`` found, and calls :meth:`refresh` only when it
        answers False.
        """
        route = record.route
        if (
            record.heard is message
            and message is not None
            and message.name is record.advertised_name
            and route.next_hop == next_hop
            and route.metric == route_metric
        ):
            record.expires_at = expires_at
            if expires_at < self._earliest_expiry:
                self._earliest_expiry = expires_at
            return True
        return False

    def refresh(
        self,
        record: NameRecord,
        name: NameSpecifier,
        endpoints: Sequence[Endpoint],
        anycast_metric: float,
        next_hop: Optional[str],
        route_metric: float,
        expires_at: float,
        message: Optional[object] = None,
    ) -> Optional[bool]:
        """Refresh in place ``record``, grafted in this tree, when it is
        grafted under ``name``, from the fields an advertisement or
        update carries — no record is built to say "same name, same
        payload". The caller found ``record`` (``record_for``); it is
        not looked up again.

        Returns None, touching nothing, when ``name`` is another name or
        ``record`` is past its deadline: the caller builds a
        ``NameRecord`` and takes :meth:`insert`.
        Otherwise the record's expiry is moved to ``expires_at`` and the
        answer says whether the payload carried new routing information
        (other endpoints, another metric, another route) that neighbor
        INRs must hear about; a payload field is written only when it
        differs, and endpoints that merely arrive in another order are
        stored in that order without counting as news. The tree epoch,
        and with it the lookup memo, is never touched.

        "Same name" is first an identity test: the grafted object
        itself, which is what a retained advertisement or update re-sent
        by its owner carries. Only another object is compared by value;
        an equal key proves it is the name already validated as concrete
        at graft time.

        ``message`` is the ``Advertisement`` or ``NameUpdate`` the
        fields were read from, when there is one; the caller has already
        offered it to :meth:`rehear`. Offered with its own endpoints
        tuple, it is stored as ``heard`` for the next one to recognise.
        """
        if record.expires_at <= self._clock():
            return None
        grafted = record.advertised_name
        if name is not grafted and name.canonical_key() != grafted.canonical_key():
            return None
        route = record.route
        # Every store to a payload field drops the update kept for the
        # record (including the reorder-only one ``changed`` does not
        # report): it no longer says what the record says.
        changed = False
        if record.anycast_metric != anycast_metric:
            record.anycast_metric = anycast_metric
            record.kept_update = None
            changed = True
        if route.next_hop != next_hop or route.metric != route_metric:
            record.route = self.route(next_hop, route_metric)
            record.kept_update = None
            changed = True
        offered = tuple(endpoints)
        if record.endpoints != offered:
            # Endpoint order carries no meaning, and a refresh almost
            # always repeats the stored order: sort only on mismatch.
            if sorted(record.endpoints) != sorted(offered):
                changed = True
            record.endpoints = offered
            record.kept_update = None
        # The payload now says what ``message`` says — unless the
        # endpoints offered were not the message's own.
        record.heard = (
            message
            if message is not None and endpoints is message.endpoints
            else None
        )
        self.set_expiry(record, expires_at)
        return changed

    def set_expiry(self, record: NameRecord, expires_at: float) -> None:
        """Move ``record``'s soft-state deadline. Every write of a
        grafted record's ``expires_at`` goes through here or through
        :meth:`rehear`, which is what lets :meth:`expire` trust its
        bound."""
        record.expires_at = expires_at
        if expires_at < self._earliest_expiry:
            self._earliest_expiry = expires_at

    def insert(self, name: NameSpecifier, record: NameRecord) -> InsertOutcome:
        """Graft ``name`` and attach ``record`` at its leaf value-nodes.

        If this announcer is already known under this name, the stored
        record is refreshed from ``record``'s fields (:meth:`refresh`,
        the one home of that rule) and ``record`` itself is discarded;
        under another name (service mobility, Section 3.2) or past its
        deadline the old record is removed and ``record`` grafted in its
        place. Advertisements must be concrete: wild-cards and ranges
        are query-only.
        """
        existing = self.record_for(record.announcer)
        if existing is not None:
            route = record.route
            changed = self.refresh(
                existing,
                name,
                record.endpoints,
                record.anycast_metric,
                route.next_hop,
                route.metric,
                record.expires_at,
            )
            if changed is not None:
                return InsertOutcome(existing, created=False, changed=changed)
        name.require_concrete()  # which keys, and so seals, the name
        if name.is_empty:
            raise ValueError("cannot advertise an empty name-specifier")
        record.vspace = self.vspace
        held = self._by_announcer.get(record.announcer)
        if held is not None:
            self.remove(held)  # renamed, or past its deadline
        self._graft(name, record)
        return InsertOutcome(record, created=existing is None, changed=True)

    def _graft(self, name: NameSpecifier, record: NameRecord) -> None:
        record.advertised_name = name
        # A graft writes everything: whatever was said or heard of the
        # record was said or heard of another one.
        record.kept_update = None
        record.heard = None
        self.set_expiry(record, record.expires_at)
        text = name.cached_wire()
        if text is not None:
            # The latest graft owns a text that replicas share.
            self._by_text[text] = name
        if self._free:
            slot = self._free.pop()
            self._slots[slot] = record
        else:
            slot = len(self._slots)
            self._slots.append(record)
        record.slot = slot
        # Explicit stack, pushed in reverse child order so leaves attach
        # in exactly the pre-order the recursive formulation produced
        # (attachment order feeds GET-NAME reconstruction order, which
        # feeds update wire bytes: it must stay deterministic). The
        # leaves are gathered here and stored as one tuple.
        attachments: List[ValueNode] = []
        stack: List[Tuple[ValueNode, AVPair]] = [
            (self._root, pair) for pair in name._roots[::-1]
        ]
        while stack:
            parent_value, pair = stack.pop()
            attribute_node = parent_value.ensure_child(pair.attribute)
            child_value = attribute_node.ensure_child(pair.value)
            children = pair._children
            if not children:
                child_value.add_slot(slot)
                attachments.append(child_value)
            else:
                for child_pair in children[::-1]:
                    stack.append((child_value, child_pair))
        record.attachments = tuple(attachments)
        self._by_announcer[record.announcer] = record
        self._epoch += 1

    def remove(self, record: NameRecord) -> bool:
        """Detach ``record`` and prune branches it alone kept alive.

        Returns False when the record is not in this tree.
        """
        stored = self._by_announcer.get(record.announcer)
        if stored is not record:
            return False
        del self._by_announcer[record.announcer]
        slot = record.slot
        for value_node in record.attachments:
            value_node.drop_slot(slot)
            value_node.prune_upwards()
        record.attachments = ()
        self._slots[slot] = None
        self._free.append(slot)
        record.slot = None
        name = record.advertised_name
        text = name.cached_wire()
        if text is not None and self._by_text.get(text) is name:
            del self._by_text[text]
        record.advertised_name = None
        self._epoch += 1
        return True

    def remove_announcer(self, announcer: AnnouncerID) -> Optional[NameRecord]:
        """Remove and return the record for ``announcer``, if present."""
        record = self._by_announcer.get(announcer)
        if record is not None:
            self.remove(record)
        return record

    # ------------------------------------------------------------------
    # Soft state
    # ------------------------------------------------------------------
    def expire(self, now: float) -> List[NameRecord]:
        """Remove every record whose lifetime elapsed; returns them.

        Reads hide them already; this reclaims their memory. While
        ``now`` is below the bound on every deadline no record is
        visited; a sweep that does scan recomputes the bound.
        """
        if now < self._earliest_expiry:
            return []
        expired = [
            record
            for record in self._by_announcer.values()
            if now >= record.expires_at
        ]
        for record in expired:
            self.remove(record)
        self._earliest_expiry = min(
            [record.expires_at for record in self._by_announcer.values()],
            default=math.inf,
        )
        return expired

    # ------------------------------------------------------------------
    # LOOKUP-NAME (Figure 5)
    # ------------------------------------------------------------------
    def lookup(self, name: NameSpecifier) -> Set[NameRecord]:
        """All live name-records whose advertisements satisfy ``name``.

        With memoization on (the default), a repeated query against an
        unchanged record set is answered from an LRU memo keyed by the
        query's canonical key. Records are shared objects, so in-place
        refreshes (endpoints, metrics, expiry) are visible through
        memoized results without any invalidation; the memo holds dead
        records too, and :meth:`_live` drops them from the answer.

        The bound (``MEMO_CAPACITY`` beyond one result per record) may
        follow the tree because every entry belongs to the current
        epoch's record set: a graft, removal or expiry flushes the whole
        memo before the next answer, so a shrunken tree never serves
        from an over-full memo, and one eviction per miss keeps it
        within the bound.
        """
        if not self._memoize:
            return set(self._live(self._records_of(self._lookup(self._root, name._roots))))
        if self._memo_epoch != self._epoch:
            if self._memo:
                self._memo.clear()
                self.memo_invalidations += 1
            self._memo_epoch = self._epoch
        key = name.canonical_key()
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            self._memo.move_to_end(key)
            return set(self._live(cached))
        self.memo_misses += 1
        result = frozenset(self._records_of(self._lookup(self._root, name._roots)))
        if len(self._memo) >= MEMO_CAPACITY + len(self._by_announcer):
            self._memo.popitem(last=False)
            self.memo_evictions += 1
        self._memo[key] = result
        return set(self._live(result))

    def _live(self, records: Iterable[NameRecord]) -> Iterable[NameRecord]:
        """``records`` whose deadline is after the clock, in order: below
        the bound on every deadline, ``records`` itself, unvisited."""
        now = self._clock()
        if now < self._earliest_expiry:
            return records
        return [record for record in records if record.expires_at > now]

    def _records_of(self, bits: int) -> List[NameRecord]:
        """The records whose slots are set in ``bits``, lowest slot
        first, in O(width + result size). The bitmap is shifted down to
        its lowest set slot; wider than one 64-bit word, it is cut into
        words once. When nearly every word holds a record, one C-level
        pass selects the slots by the bitmap's binary digits; otherwise
        the zero words are skipped in C and each other word is taken
        apart a bit at a time. A bitmap a lookup returns holds live slots
        only: remove clears a record's bits before it frees the slot."""
        if not bits:
            return []
        slots = self._slots
        start = (bits & -bits).bit_length() - 1
        bits >>= start
        if bits >> 64:
            words = array("Q", bits.to_bytes((bits.bit_length() + 63) >> 6 << 3, "little"))
            if words.count(0) * 8 < len(words):
                digits = bin(bits)[:1:-1].encode("ascii").translate(_DIGIT_TO_SELECTOR)
                return list(compress(slots[start:start + len(digits)], digits))
            if _BIG_ENDIAN:
                words.byteswap()
            chunks = (
                (start + (index << 6), words[index]) for index in compress(count(), words)
            )
        else:
            chunks = ((start, bits),)
        found: List[NameRecord] = []
        append = found.append
        for base, word in chunks:
            while word:
                low = word & -word
                append(slots[base + low.bit_length() - 1])
                word ^= low
        return found

    def _lookup(self, tree_node: ValueNode, pairs) -> int:
        """Figure 5, iteratively, over record bitmaps: an explicit stack
        of frames replaces recursion (a frame per query level), a leaf
        value-node's records are ``bits << offset``, and an interior one's
        subtree records come from its epoch-keyed cache. Returns the
        bitmap of the matching records' slots.

        ``None`` candidates stand for the universal set so we never
        materialize "all possible name-records" just to intersect it
        away.
        """
        epoch = self._epoch
        # Frame: [value_node, pair iterator, candidates]. The iterator
        # doubles as the resume cursor after a child frame returns; a
        # finished frame's result is merged straight into its parent's
        # candidates slot when it pops. Early exit on an empty
        # intersection happens where the emptiness arises — including
        # exhausting the parent's iterator from the pop-merge — so the
        # per-pair loop carries no emptiness re-check.
        frames: List[list] = [[tree_node, iter(pairs), None]]
        push = frames.append
        while True:
            frame = frames[-1]
            node = frame[0]
            pending = frame[1]
            candidates = frame[2]
            descend = False
            for pair in pending:
                attribute_node = node.children.get(pair.attribute)
                if attribute_node is None:
                    # No advertisement classifies this attribute here,
                    # so every one of them omitted it: no constraint
                    # (omitted attributes are wild-cards).
                    continue
                value = pair.value
                if value != "*" and (not value or value[0] not in "<>"):
                    # Literal value: hash straight to the value-node,
                    # no matcher object.
                    value_node = attribute_node.children.get(value)
                    if value_node is None:
                        candidates = 0
                        break
                    children = pair._children
                    # Query leaf or tree leaf: intersect with the
                    # value-node's whole subtree (omitted attributes
                    # are wild-cards).
                    if not value_node.children:
                        subtree = value_node.bits << value_node.offset
                    elif not children:
                        if value_node._sub_epoch == epoch:
                            subtree = value_node._sub_bits
                        else:
                            subtree = value_node.subtree_bits(epoch)
                    else:
                        frame[2] = candidates
                        push([value_node, iter(children), None])
                        descend = True
                        break
                    if candidates is None:
                        candidates = subtree
                    else:
                        candidates &= subtree
                        if not candidates:
                            break
                else:
                    # Wild-card or range: union the subtrees of every
                    # matching value. Av-pairs below a wild-card are
                    # ignored, exactly as the paper specifies.
                    matches = classify_value(value).matches
                    selected = 0
                    for advertised, value_node in attribute_node.children.items():
                        if matches(advertised):
                            if not value_node.children:
                                selected |= value_node.bits << value_node.offset
                            elif value_node._sub_epoch == epoch:
                                selected |= value_node._sub_bits
                            else:
                                selected |= value_node.subtree_bits(epoch)
                    if candidates is None:
                        candidates = selected
                    else:
                        candidates &= selected
                        if not candidates:
                            break
            if descend:
                continue
            if candidates is None:
                # No constraint applied at this level: everything below
                # (and at) this node matches.
                returned = node.subtree_bits(epoch)
            elif node.bits:
                returned = candidates | node.bits << node.offset
            else:
                returned = candidates
            frames.pop()
            if not frames:
                return returned
            parent = frames[-1]
            parent_candidates = parent[2]
            if parent_candidates is not None:
                returned &= parent_candidates
            parent[2] = returned
            if not returned:
                # Intersection can only stay empty: skip the parent's
                # remaining pairs by exhausting its cursor.
                parent[1] = _EXHAUSTED

    # ------------------------------------------------------------------
    # GET-NAME (Figure 6)
    # ------------------------------------------------------------------
    def get_name(self, record: NameRecord) -> NameSpecifier:
        """The name-specifier advertised for ``record``: the object
        grafted, a sealed value shared with its other holders (the
        advertiser, neighbor INRs' trees, messages in flight).
        Figure 6's literal trace rebuilds the same name from the tree,
        sibling order included: leaves attach in pre-order."""
        return record.advertised_name

    def advertised(self, text: str) -> Optional[NameSpecifier]:
        """The retained name-specifier whose compact wire text is
        exactly ``text``, or None: a name section recognised by its
        bytes instead of parsed again."""
        return self._by_text.get(text)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def record_for(self, announcer: AnnouncerID) -> Optional[NameRecord]:
        """The live record announced by ``announcer``, or None."""
        record = self._by_announcer.get(announcer)
        return record if record is not None and record.expires_at > self._clock() else None

    def records(self) -> Iterator[NameRecord]:
        """All live records, in no particular order."""
        return iter(list(self._live(self._by_announcer.values())))

    def names(self) -> Iterator[Tuple[NameSpecifier, NameRecord]]:
        """All live (name-specifier, record) pairs, as GET-NAME gives them.

        This is exactly what the discovery protocol transmits in
        periodic updates (Section 2.3.3).
        """
        for record in self.records():
            yield self.get_name(record), record

    def __len__(self) -> int:
        """Number of name-records held, the dead not yet expired too."""
        return len(self._by_announcer)

    @property
    def root(self) -> ValueNode:
        """The root value-node (read-only use: sizing, visualization)."""
        return self._root

    def __repr__(self) -> str:
        return f"NameTree(vspace={self.vspace!r}, records={len(self)})"
