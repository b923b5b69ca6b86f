"""Operation counters of one INR incarnation.

One flat dataclass that every resolver component writes directly:
``snapshot()``'s key order is what the metrics registry and the
committed artifacts embed, so the fields stay in one place, in one order.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields
from typing import Callable, Dict, Iterable

from ..nametree import NameTree

#: ``NameTree`` memo counters, in snapshot order; ``InrStats`` reads each
#: through as ``lookup_<counter>``.
_MEMO_COUNTERS = ("memo_hits", "memo_misses", "memo_invalidations")


@dataclass
class InrStats:
    """Operation counters exposed for experiments and tests.

    Packet drops are kept per cause so chaos runs can attribute loss:
    a burst of ``drops_no_route`` during a crash means routes were
    flushed before refreshes re-installed them, while
    ``drops_expired_record`` means soft state aged out faster than the
    service refreshed. ``packets_dropped`` stays available as the sum.
    A ``drops_<cause>`` field *is* a drop cause: the sum and the
    per-cause breakdown are derived from the field names.

    The LOOKUP-NAME memo counters are not stored here: they are summed,
    at the moment they are read, over the trees ``memo_trees()`` yields
    (the INR passes its name-trees plus the packet cache's index), so
    they can never lag a lookup that some early return skipped past.
    A tree the INR lets go of (a delegated vspace) is retired
    first (:meth:`retire`), so the counters never run backwards either.
    """

    memo_trees: InitVar[Callable[[], Iterable[NameTree]]]

    lookups: int = 0
    update_names_processed: int = 0
    advertisements_processed: int = 0
    packets_delivered_locally: int = 0
    packets_forwarded: int = 0
    packets_forwarded_foreign_vspace: int = 0
    packets_answered_from_cache: int = 0
    triggered_updates_sent: int = 0
    periodic_updates_sent: int = 0
    queries_served: int = 0
    #: no record matched the destination name
    drops_no_route: int = 0
    #: records matched but every one had outlived its soft-state lifetime
    drops_expired_record: int = 0
    #: foreign-vspace payload with no DSR or no resolver for the vspace
    drops_foreign_vspace: int = 0
    #: packet reached a crashed/terminated resolver process
    drops_terminated: int = 0
    #: unparsable packet, or early binding without a source name
    drops_malformed: int = 0
    #: matched record carried no endpoints to deliver to
    drops_no_endpoint: int = 0
    #: hop limit reached zero before delivery
    drops_hop_limit: int = 0
    #: payload type no dispatch arm recognizes (wire-format skew or a
    #: message class added without a handler)
    drops_unknown_message: int = 0

    #: --- Disruption tolerance (custody store-and-forward) ------------
    #: payloads taken into custody instead of being dropped
    custody_accepted: int = 0
    #: payloads released back into forwarding when a route returned
    custody_released: int = 0
    #: CUSTODY-TRANSFER handoffs sent (terminating-INR migration)
    custody_transfers_sent: int = 0
    #: CUSTODY-TRANSFER handoffs received
    custody_transfers_received: int = 0
    #: expired records re-admitted by a refresh inside the partition
    #: grace window (the soft-state fast path after a heal)
    expiry_grace_readmissions: int = 0
    #: custody lapsed: the payload's TTL deadline passed unresolved
    drops_custody_expired: int = 0
    #: custody pushed out by capacity pressure or refused at the door
    drops_custody_evicted: int = 0
    #: custody handoff with no surviving recipient, or the payloads
    #: arrived at a resolver that runs no custody store
    drops_custody_transfer_failed: int = 0

    #: --- Crash-safe vspace delegation (two-phase handoff) ------------
    #: handoffs this resolver initiated as donor
    delegations_started: int = 0
    #: handoffs that committed (donor side: the vspace left)
    delegations_committed: int = 0
    #: handoffs the donor aborted (timeout, crash, termination)
    delegations_aborted: int = 0
    #: vspaces this resolver adopted as recipient
    delegations_adopted: int = 0
    #: adoptions rolled back by an abort-after-commit (donor crashed
    #: before finalizing; abort wins)
    delegation_rollbacks: int = 0
    #: name-records sent in DELEGATE-TRANSFER chunks
    delegate_records_sent: int = 0
    #: name-records received in DELEGATE-TRANSFER chunks
    delegate_records_received: int = 0
    #: fenced delegation frames (stale retransmissions) dropped —
    #: control-plane drops, deliberately not in ``packets_dropped``
    delegate_stale_dropped: int = 0

    def __post_init__(self, memo_trees) -> None:
        self._memo_trees = memo_trees
        #: what retired trees had counted
        self._memo_retired = dict.fromkeys(_MEMO_COUNTERS, 0)

    # --- LOOKUP-NAME memo (resolution fast path), read through ----------
    def _memo_total(self, counter: str) -> int:
        return self._memo_retired[counter] + sum(
            getattr(tree, counter) for tree in self._memo_trees()
        )

    def retire(self, tree: NameTree) -> None:
        """Keep the memo counts of a tree ``memo_trees()`` is about to
        stop yielding."""
        for counter in _MEMO_COUNTERS:
            self._memo_retired[counter] += getattr(tree, counter)

    @property
    def packets_dropped(self) -> int:
        """Total packets dropped, across every cause."""
        return sum(getattr(self, name) for name in _DROP_FIELDS)

    def drops_by_cause(self) -> Dict[str, int]:
        """Nonzero drop counters keyed by cause name, in declaration
        order (``drops_no_route`` is cause ``no-route``)."""
        counts = ((cause, getattr(self, name)) for name, cause in _DROP_FIELDS.items())
        return {cause: count for cause, count in counts if count}

    def snapshot(self) -> Dict[str, object]:
        """Every counter in declaration order, plus the derived sum and
        the per-cause drop breakdown — the uniform shape the metrics
        registry ingests and artifacts embed."""
        out: Dict[str, object] = {}
        for f in fields(self):
            if f.name == _MEMO_BEFORE:
                # where the memo counters were fields
                for counter in _MEMO_COUNTERS:
                    out["lookup_" + counter] = self._memo_total(counter)
            out[f.name] = getattr(self, f.name)
        out["packets_dropped"] = self.packets_dropped
        out["drops_by_cause"] = self.drops_by_cause()
        return out


#: drop counter field -> cause name, in declaration order
_DROP_FIELDS: Dict[str, str] = {
    f.name: f.name.split("_", 1)[1].replace("_", "-")
    for f in fields(InrStats)
    if f.name.startswith("drops_")
}

#: The field a snapshot puts the memo counters before: the first after
#: the leading block of drop causes (none is an import-time error).
_FIELDS = [f.name for f in fields(InrStats)]
_MEMO_BEFORE = next(
    name
    for before, name in zip(_FIELDS, _FIELDS[1:])
    if before in _DROP_FIELDS and name not in _DROP_FIELDS
)
