"""Recovery timestamps and MTTR statistics for chaos runs.

For every injected fault the tracker records three timestamps on the
simulator's virtual clock:

- **injected** — when the fault was applied;
- **detected** — when any healthy component first *reacted* to it (the
  DSR dropped the crashed INR, a peer flushed it, ...): this is what
  the soft-state timeouts bound;
- **recovered** — when the system finished reconverging (the resolver
  is back, re-registered and re-peered; the DSR's view matches the
  live set; names flow across the healed link again).

Detection and recovery are observed by polling predicates on a short
virtual-time interval, so the measured times are accurate to the poll
interval — plenty for comparing refresh-interval/neighbor-timeout
sweeps whose effects differ by tens of seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.domain import InsDomain
    from ..resolver.inr import INR

Predicate = Callable[[], bool]


@dataclass
class RecoveryRecord:
    """Lifecycle timestamps of one fault."""

    kind: str
    target: str
    injected_at: float
    detected_at: Optional[float] = None
    recovered_at: Optional[float] = None

    @property
    def time_to_detect(self) -> float:
        if self.detected_at is None:
            return math.inf
        return self.detected_at - self.injected_at

    @property
    def time_to_recover(self) -> float:
        """The fault's repair time (the MTTR sample); inf if it never
        recovered within the run."""
        if self.recovered_at is None:
            return math.inf
        return self.recovered_at - self.injected_at


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; inf propagates from unrecovered faults."""
    if not samples:
        return math.nan
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class RecoveryTracker:
    """Watches fault recovery inside one :class:`InsDomain`."""

    def __init__(self, domain: "InsDomain", poll_interval: float = 0.25) -> None:
        if poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        self.domain = domain
        self.poll_interval = poll_interval
        self.records: List[RecoveryRecord] = []
        self._watches: List[Tuple[RecoveryRecord, Predicate, Predicate]] = []
        self._polling = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Generic watch machinery
    # ------------------------------------------------------------------
    def watch(
        self,
        kind: str,
        target: str,
        detect: Predicate,
        recover: Predicate,
    ) -> RecoveryRecord:
        """Track a fault injected *now*: ``detect`` should become true
        when the system notices the fault, ``recover`` when it has fully
        reconverged. ``recover`` is only evaluated after detection."""
        record = RecoveryRecord(
            kind=kind, target=target, injected_at=self.domain.sim.now
        )
        self.records.append(record)
        self._watches.append((record, detect, recover))
        self._ensure_polling()
        return record

    def stop(self) -> None:
        """Stop polling; open watches keep their None timestamps."""
        self._stopped = True

    def _ensure_polling(self) -> None:
        if not self._polling and not self._stopped:
            self._polling = True
            self.domain.sim.schedule(self.poll_interval, self._poll)

    def _poll(self) -> None:
        if self._stopped:
            self._polling = False
            return
        now = self.domain.sim.now
        still_open = []
        for record, detect, recover in self._watches:
            if record.detected_at is None:
                if detect():
                    record.detected_at = now
            if recover():
                # A fault can heal before its soft-state detection signal
                # fires (e.g. a restart quicker than the registration
                # lifetime); recovery then implies detection.
                if record.detected_at is None:
                    record.detected_at = now
                record.recovered_at = now
                continue
            still_open.append((record, detect, recover))
        self._watches = still_open
        if self._watches:
            self.domain.sim.schedule(self.poll_interval, self._poll)
        else:
            self._polling = False

    # ------------------------------------------------------------------
    # Canned watches for the standard fault vocabulary
    # ------------------------------------------------------------------
    def watch_inr_crash(self, inr: "INR") -> RecoveryRecord:
        """A crash with no planned restart: the system has recovered
        once every trace of the dead resolver is gone — the DSR expired
        its registration and every live peer dropped and flushed it."""
        address = inr.address
        domain = self.domain
        detected = self._crash_detector(address)

        def recovered() -> bool:
            return address not in domain.dsr.active_inrs and all(
                address not in live.neighbors for live in domain.live_inrs
            )

        return self.watch("crash-inr", address, detected, recovered)

    def watch_inr_crash_with_restart(self, inr: "INR") -> RecoveryRecord:
        """A crash whose plan schedules a restart: recovery additionally
        requires the resurrected resolver to be active, re-registered,
        re-peered (when there is anyone to peer with), and to have heard
        every directly-attached live service re-advertise — a restarted
        INR comes back with empty name-trees, so its names only return
        at the services' refresh cadence."""
        address = inr.address
        domain = self.domain
        detected = self._crash_detector(address)

        def names_rebuilt(revived: "INR") -> bool:
            for service in domain.services:
                if service.resolver != address:
                    continue
                if service.node.process_on(service.port) is not service:
                    continue  # service itself is down
                for vspace in service.name.vspaces():
                    tree = revived.trees.get(vspace)
                    if tree is None or tree.record_for(service.announcer) is None:
                        return False
            return True

        def recovered() -> bool:
            revived = domain.inr_at(address)
            if revived is None or revived.terminated or not revived.active:
                return False
            if address not in domain.dsr.active_inrs:
                return False
            others = [i for i in domain.live_inrs if i.address != address]
            if others and len(revived.neighbors) == 0:
                return False
            return names_rebuilt(revived)

        return self.watch("crash-inr", address, detected, recovered)

    def _crash_detector(self, address: str) -> Predicate:
        """Detection = the DSR expired the registration, or any peer
        that knew the dead resolver at injection time has dropped it."""
        domain = self.domain
        peers_at_injection = [
            live for live in domain.live_inrs if address in live.neighbors
        ]

        def detected() -> bool:
            if address not in domain.dsr.active_inrs:
                return True
            return any(
                address not in peer.neighbors
                for peer in peers_at_injection
                if not peer.terminated
            )

        return detected

    def watch_link_flap(self, pair: Tuple[str, str]) -> RecoveryRecord:
        """A link flap: detected while the link is down, recovered when
        it is back up and traffic flows again (best observable proxy:
        the link is up and no endpoint node is isolated)."""
        a, b = pair
        link = self.domain.network.link(a, b)

        def detected() -> bool:
            return not link.up

        def recovered() -> bool:
            return link.up

        return self.watch("link-flap", f"{a}~{b}", detected, recovered)

    def watch_dsr_failover(self) -> RecoveryRecord:
        """A DSR failover: recovered when the promoted primary's active
        list exactly matches the live resolvers."""
        domain = self.domain

        def detected() -> bool:
            return True  # the failover itself is the detection event

        def recovered() -> bool:
            live = {inr.address for inr in domain.live_inrs}
            return set(domain.dsr.active_inrs) == live

        return self.watch("dsr-failover", domain.dsr.address, detected, recovered)

    # ------------------------------------------------------------------
    # MTTR statistics
    # ------------------------------------------------------------------
    def mttr_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-fault-kind MTTR percentiles (seconds of virtual time).

        ``unrecovered`` counts faults whose recovery predicate never
        held; their inf samples propagate into the percentiles, so a
        finite p100 certifies every fault of that kind healed.
        """
        by_kind: Dict[str, List[RecoveryRecord]] = {}
        for record in self.records:
            by_kind.setdefault(record.kind, []).append(record)
        summary: Dict[str, Dict[str, float]] = {}
        for kind, records in sorted(by_kind.items()):
            samples = [record.time_to_recover for record in records]
            detects = [record.time_to_detect for record in records]
            summary[kind] = {
                "count": float(len(samples)),
                "p50": percentile(samples, 0.50),
                "p95": percentile(samples, 0.95),
                "p100": max(samples),
                "detect_p50": percentile(detects, 0.50),
                "detect_p100": max(detects),
                "unrecovered": float(sum(1 for s in samples if math.isinf(s))),
            }
        return summary
