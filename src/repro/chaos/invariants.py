"""System-wide invariants an INS domain must uphold under chaos.

Two classes of property, mirroring how the paper argues robustness
(§2.2, §2.4):

**Always-invariants** — must hold at every instant, even mid-fault:

- the overlay peer graph is acyclic (a forest); the self-configuration
  protocol only ever peers a joiner with an earlier-ordered INR, and
  relaxation only probes earlier INRs, so no sequence of crashes,
  restarts and re-joins may create a cycle;
- per-name forwarding has no routing loops: following ``next_hop``
  pointers for any announcer never revisits a resolver, even while
  distributed Bellman-Ford is reconverging (split horizon over a tree);
- no candidate node is claimed twice: the DSR's candidate list holds no
  duplicates and never overlaps the active list, on the primary or any
  replica.

**Convergence-invariants** — must hold once faults have healed and the
soft-state clocks have run one full cycle (see
:meth:`InvariantChecker.convergence_bound`):

- the live resolvers re-form a *single* spanning tree (connected, and
  exactly n-1 mutual peerings);
- name-trees reach eventual consistency: every live resolver routing a
  vspace knows exactly the names of the live services advertising into
  it — nothing stale survives, nothing live is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..resolver.custody import CUSTODY_RETRY_INTERVAL

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.domain import InsDomain
    from ..resolver.inr import INR


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.3f}] {self.invariant}: {self.detail}"


class InvariantChecker:
    """Samples a whole :class:`InsDomain` and asserts global properties."""

    def __init__(self, domain: "InsDomain") -> None:
        self.domain = domain
        #: violations recorded by installed periodic sampling
        self.violations: List[Violation] = []
        self._sampling = False
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # Periodic sampling during chaos
    # ------------------------------------------------------------------
    def install(self, interval: float = 1.0) -> "InvariantChecker":
        """Check the always-invariants every ``interval`` virtual
        seconds, accumulating any breaches in :attr:`violations`."""
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        if self._sampling:
            raise RuntimeError("checker already installed")
        self._sampling = True

        def sample() -> None:
            if not self._sampling:
                return
            self.violations.extend(self.check_always())
            self.samples_taken += 1
            self.domain.sim.schedule(interval, sample)

        self.domain.sim.schedule(interval, sample)
        return self

    def uninstall(self) -> None:
        self._sampling = False

    # ------------------------------------------------------------------
    # Invariant groups
    # ------------------------------------------------------------------
    def check_always(self) -> List[Violation]:
        """Invariants that must hold at every instant, faults or not."""
        return (
            self.overlay_is_forest()
            + self.no_routing_loops()
            + self.no_duplicate_candidate_claims()
        )

    def check_converged(self) -> List[Violation]:
        """Invariants that must hold after faults heal and soft state
        has had :meth:`convergence_bound` seconds to cycle."""
        return (
            self.overlay_is_single_tree()
            + self.names_consistent()
            + self.custody_drained()
        )

    def convergence_bound(self) -> float:
        """An upper bound (virtual seconds) on reconvergence after the
        last fault heals.

        Dead state must age out — bounded by the record lifetime, the
        neighbor timeout and the DSR registration lifetime, plus one
        sweep. Fresh state must propagate — one refresh interval per
        overlay hop, worst case the full live-resolver count, plus one
        refresh for the service's own re-advertisement.
        """
        config = self.domain.config
        depth = max(1, len(self._live_inrs()))
        expiry = max(
            config.record_lifetime,
            config.neighbor_timeout,
            self.domain.dsr.registration_lifetime,
        ) + config.expiry_sweep_interval
        if config.enable_custody:
            # A held payload is settled no later than its TTL plus one
            # retry tick: released if a route returned, lapsed if not.
            expiry = max(expiry, config.custody_ttl + CUSTODY_RETRY_INTERVAL)
        propagation = config.refresh_interval * (depth + 1)
        return expiry + propagation + 5.0

    # ------------------------------------------------------------------
    # Overlay topology
    # ------------------------------------------------------------------
    def _live_inrs(self) -> List["INR"]:
        return self.domain.live_inrs

    def _mutual_edges(self) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        """Live resolver addresses and their mutual peer edges."""
        live = {inr.address: inr for inr in self._live_inrs()}
        edges: Set[Tuple[str, str]] = set()
        for address, inr in live.items():
            for neighbor in inr.neighbors.addresses:
                peer = live.get(neighbor)
                if peer is not None and address in peer.neighbors:
                    edges.add((min(address, neighbor), max(address, neighbor)))
        return set(live), edges

    def overlay_is_forest(self) -> List[Violation]:
        """The mutual-peering graph over live resolvers is acyclic."""
        nodes, edges = self._mutual_edges()
        parent = {node: node for node in nodes}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        violations = []
        for a, b in sorted(edges):
            root_a, root_b = find(a), find(b)
            if root_a == root_b:
                violations.append(
                    Violation(
                        time=self.domain.sim.now,
                        invariant="overlay-acyclic",
                        detail=f"edge {a}~{b} closes a cycle in the overlay",
                    )
                )
            else:
                parent[root_a] = root_b
        return violations

    def overlay_is_single_tree(self) -> List[Violation]:
        """Live resolvers form one connected spanning tree."""
        nodes, edges = self._mutual_edges()
        violations = self.overlay_is_forest()
        if len(nodes) <= 1:
            return violations
        # A forest with n-1 edges over n nodes is connected.
        if len(edges) != len(nodes) - 1:
            components = len(nodes) - len(edges) if not violations else -1
            violations.append(
                Violation(
                    time=self.domain.sim.now,
                    invariant="overlay-single-tree",
                    detail=(
                        f"{len(nodes)} live resolvers with {len(edges)} mutual "
                        f"peerings ({components} components); expected one tree"
                    ),
                )
            )
        return violations

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def no_routing_loops(self) -> List[Violation]:
        """Following ``next_hop`` chains never revisits a resolver."""
        live = {inr.address: inr for inr in self._live_inrs()}
        violations = []
        for address in sorted(live):
            inr = live[address]
            for vspace, tree in sorted(inr.trees.items()):
                for record in tree.records():
                    if record.route.is_local:
                        continue
                    visited = [address]
                    hop: Optional[str] = record.route.next_hop
                    announcer = record.announcer
                    while hop is not None:
                        if hop in visited:
                            violations.append(
                                Violation(
                                    time=self.domain.sim.now,
                                    invariant="no-routing-loops",
                                    detail=(
                                        f"announcer {announcer} in {vspace!r} "
                                        f"loops: {' -> '.join(visited + [hop])}"
                                    ),
                                )
                            )
                            break
                        visited.append(hop)
                        next_inr = live.get(hop)
                        if next_inr is None:
                            break  # dead end: packet drops, not a loop
                        next_tree = next_inr.trees.get(vspace)
                        next_record = (
                            next_tree.record_for(announcer)
                            if next_tree is not None
                            else None
                        )
                        if next_record is None or next_record.route.is_local:
                            break
                        hop = next_record.route.next_hop
        return violations

    # ------------------------------------------------------------------
    # DSR claims
    # ------------------------------------------------------------------
    def no_duplicate_candidate_claims(self) -> List[Violation]:
        """No node is spawnable twice or both spawnable and active."""
        violations = []
        resolvers = [("primary", self.domain.dsr)] + [
            (f"replica:{replica.address}", replica)
            for replica in self.domain.dsr_replicas
        ]
        for label, dsr in resolvers:
            candidates = dsr.candidates
            if len(set(candidates)) != len(candidates):
                violations.append(
                    Violation(
                        time=self.domain.sim.now,
                        invariant="unique-candidate-claims",
                        detail=f"{label} candidate list has duplicates: {candidates}",
                    )
                )
            overlap = set(candidates) & set(dsr.active_inrs)
            if overlap:
                violations.append(
                    Violation(
                        time=self.domain.sim.now,
                        invariant="unique-candidate-claims",
                        detail=f"{label} lists {sorted(overlap)} as both "
                        "candidate and active",
                    )
                )
        return violations

    # ------------------------------------------------------------------
    # Custody (disruption tolerance)
    # ------------------------------------------------------------------
    def custody_drained(self) -> List[Violation]:
        """After heal plus the convergence bound, no payload may still
        sit in custody: every held payload must have been released (a
        route returned and it moved on) or lapsed by its TTL and
        attributed as a drop. A payload parked forever is a custody
        retry bug, not disruption tolerance. Vacuously holds when
        custody is disabled (no resolver owns a store).
        """
        violations = []
        for inr in sorted(self._live_inrs(), key=lambda i: i.address):
            store = getattr(inr, "custody", None)
            if store is None or not len(store):
                continue
            held = [
                f"{entry.vspace}:{entry.cause}" for entry in store.entries()
            ]
            violations.append(
                Violation(
                    time=self.domain.sim.now,
                    invariant="custody-drained",
                    detail=(
                        f"{inr.address} still holds {len(held)} custodied "
                        f"payload(s) ({', '.join(held[:4])}) after the "
                        "convergence bound"
                    ),
                )
            )
        return violations

    # ------------------------------------------------------------------
    # Delegation (crash-safe vspace handoff, PROTOCOL.md §11)
    # ------------------------------------------------------------------
    def single_vspace_authority(
        self, vspaces: Tuple[str, ...]
    ) -> List[Violation]:
        """Each named vspace has exactly one live authoritative INR,
        and the DSR's map agrees with the resolvers' own view.

        This is the delegation protocol's core safety property: a
        handoff must never leave a vspace with zero authorities (names
        lost) or two (split brain), no matter which side crashed at
        which phase. It is *not* part of :meth:`check_converged`
        because lookup-overload spawning legitimately replicates a
        vspace across resolvers — the delegation chaos scenario, which
        disables that path, calls this directly."""
        violations = []
        live = self._live_inrs()
        for vspace in sorted(vspaces):
            owners = sorted(
                inr.address for inr in live if inr.routes_vspace(vspace)
            )
            if len(owners) != 1:
                violations.append(
                    Violation(
                        time=self.domain.sim.now,
                        invariant="single-vspace-authority",
                        detail=(
                            f"vspace {vspace!r} has {len(owners)} live "
                            f"authorities {owners}; expected exactly one"
                        ),
                    )
                )
            dsr_view = self.domain.dsr.resolvers_for(vspace)
            if list(dsr_view) != owners:
                violations.append(
                    Violation(
                        time=self.domain.sim.now,
                        invariant="single-vspace-authority",
                        detail=(
                            f"DSR maps vspace {vspace!r} to {list(dsr_view)} "
                            f"but the live authorities are {owners}"
                        ),
                    )
                )
        return violations

    def delegations_settled(self) -> List[Violation]:
        """No live resolver still has a handoff in flight: every
        delegation either committed or aborted. A donor or recipient
        pinned in an unfinished handoff after the convergence bound is
        a liveness bug — it blocks both retries and self-termination."""
        violations = []
        for inr in sorted(self._live_inrs(), key=lambda i: i.address):
            coordinator = getattr(inr, "delegation", None)
            if coordinator is None:
                continue
            donor = coordinator.donor
            if donor is not None:
                violations.append(
                    Violation(
                        time=self.domain.sim.now,
                        invariant="delegations-settled",
                        detail=(
                            f"{inr.address} still donating handoff "
                            f"{donor.handoff_id:#x} ({donor.vspace!r}, "
                            f"phase {donor.phase})"
                        ),
                    )
                )
            for handoff in coordinator.recipients.values():
                violations.append(
                    Violation(
                        time=self.domain.sim.now,
                        invariant="delegations-settled",
                        detail=(
                            f"{inr.address} still receiving handoff "
                            f"{handoff.handoff_id:#x} ({handoff.vspace!r}, "
                            f"phase {handoff.phase})"
                        ),
                    )
                )
        return violations

    # ------------------------------------------------------------------
    # Name-tree eventual consistency
    # ------------------------------------------------------------------
    def _expected_names(self) -> Dict[str, Set]:
        """vspace -> announcers of live services attached to live
        resolvers (what every resolver of that vspace should know)."""
        live_resolver_addresses = {inr.address for inr in self._live_inrs()}
        expected: Dict[str, Set] = {}
        for service in self.domain.services:
            if service.node.process_on(service.port) is not service:
                continue  # service stopped
            if service.resolver not in live_resolver_addresses:
                continue  # its resolver is down: the name may rightly vanish
            for vspace in service.name.vspaces():
                expected.setdefault(vspace, set()).add(service.announcer)
        return expected

    def names_consistent(self) -> List[Violation]:
        """Every live resolver of a vspace knows exactly the live names.

        Only valid once :meth:`convergence_bound` seconds have passed
        since the last fault healed; before that, missing or stale
        names are the soft-state protocol working as designed.
        """
        expected = self._expected_names()
        violations = []
        for inr in sorted(self._live_inrs(), key=lambda i: i.address):
            for vspace, tree in sorted(inr.trees.items()):
                want = expected.get(vspace, set())
                have = {record.announcer for record in tree.records()}
                missing = want - have
                stale = have - want
                if missing:
                    violations.append(
                        Violation(
                            time=self.domain.sim.now,
                            invariant="name-consistency",
                            detail=f"{inr.address} vspace {vspace!r} is missing "
                            f"{sorted(str(a) for a in missing)}",
                        )
                    )
                if stale:
                    violations.append(
                        Violation(
                            time=self.domain.sim.now,
                            invariant="name-consistency",
                            detail=f"{inr.address} vspace {vspace!r} holds stale "
                            f"{sorted(str(a) for a in stale)}",
                        )
                    )
        return violations
