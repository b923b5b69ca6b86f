"""The Intentional Name Resolver (Sections 2, 2.2-2.5).

An INR integrates name resolution with message routing. It keeps one
name-tree per virtual space it routes and hosts the components that do
the work, each in its own module: overlay self-configuration
(``membership``, Section 2.4), the name discovery protocol
(``discovery``, 2.2), queries and the forwarding agent (``dataplane``,
2.3), custody store-and-forward (``custody``), load balancing
(``loadbalance``, 2.5) and the vspace handoff it starts (``delegation``).

What is left here is the process itself: its lifecycle, the dispatch of
an arriving message to the component that registered its type, and the
hooks the components share.
"""

from __future__ import annotations

from types import MethodType
from typing import Callable, Dict, List, Optional, Tuple

from ..message import Header
from ..message.dsr import DsrDeregister, DsrRegisterCandidate
from ..nametree import NameTree
from ..netsim import Node, Process
from ..obs import DROP_PREFIX, STATUS_OK
from .config import InrConfig
from .costs import DEFAULT_COSTS, CostModel
from .custody import CUSTODY_RETRY_INTERVAL, Custodian
from .dataplane import DataPlane
from .delegation import DelegationCoordinator
from .discovery import NameDiscovery
from .loadbalance import LoadControl
from .membership import OverlayMembership
from .ports import DSR_PORT, INR_PORT
from .protocol import DataPacket, PeerGoodbye
from .stats import InrStats


#: Jitter fraction applied to the periodic timers so resolver timers do
#: not phase-lock.
TIMER_JITTER = 0.05

#: Seconds between overlay relaxation probes (when relaxation is on).
RELAXATION_INTERVAL = 10.0


def merge_tables(**tables: Dict[type, tuple]) -> Dict[type, tuple]:
    """Union the components' ``HANDLERS`` tables, each given under the
    INR attribute that holds the component, into ``{message type:
    (attribute, handler, cost rule)}``. A type has one owner."""
    merged: Dict[type, tuple] = {}
    for attribute, table in tables.items():
        for message, (handler, rule) in table.items():
            if message in merged:
                raise TypeError(
                    f"{message.__name__} is dispatched by both "
                    f"{merged[message][0]} and {attribute}"
                )
            merged[message] = (attribute, handler, rule)
    return merged


class INR(Process):
    """One Intentional Name Resolver process.

    ``spawner`` is the hook through which load balancing creates a new
    INR on a candidate node: ``spawner(candidate_address, vspaces)``
    must instantiate and start an INR there. Experiments provide it; if
    absent, spawn/delegate decisions are skipped.
    """

    # What one incarnation holds (built by :meth:`_incarnate`).
    membership: OverlayMembership
    discovery: NameDiscovery
    dataplane: DataPlane
    custodian: Custodian
    load: LoadControl
    delegation: DelegationCoordinator

    #: Message dispatch, the union of what the components register: each
    #: declares ``HANDLERS = {payload type: (handler, cost rule)}`` of its
    #: own methods ``(self, payload, source)`` and ``costs`` rules. A type
    #: missing here costs a receive and is a ``drops_unknown_message``.
    _DISPATCH = merge_tables(
        membership=OverlayMembership.HANDLERS,
        discovery=NameDiscovery.HANDLERS,
        dataplane=DataPlane.HANDLERS,
        load=LoadControl.HANDLERS,
        delegation=DelegationCoordinator.HANDLERS,
    )

    def __init__(
        self,
        node: Node,
        dsr_address: Optional[str] = None,
        vspaces: Tuple[str, ...] = ("default",),
        config: Optional[InrConfig] = None,
        costs: Optional[CostModel] = None,
        spawner: Optional[Callable[[str, Tuple[str, ...]], "INR"]] = None,
        was_spawned: bool = False,
    ) -> None:
        super().__init__(node, INR_PORT)
        self.config = config or InrConfig()
        self.costs = costs or DEFAULT_COSTS
        self.dsr_address = dsr_address
        self.spawner = spawner
        self.was_spawned = was_spawned
        #: the vspaces this resolver was configured with; a restart after
        #: a crash comes back routing these (delegations are forgotten).
        self._initial_vspaces: Tuple[str, ...] = tuple(vspaces)
        # --- what survives a crash ------------------------------------
        #: how many times this resolver was restarted after a crash
        self.restarts = 0
        #: Observability hook: a ``repro.obs.Tracer`` when the domain is
        #: being observed, None otherwise. Every instrumentation site
        #: guards on it so tracing costs nothing when off. The collector
        #: observing the run outlives any one process incarnation.
        self.tracer = None
        #: Stable storage written by crash(), re-adopted by restart():
        #: held payloads and finalized delegation facts (DSR pattern).
        self._custody_held: tuple = ()
        self._delegation_snapshot: tuple = ()
        self._incarnate()

    def _incarnate(self) -> None:
        """Build everything one incarnation of the process holds in
        memory — a fresh start and a restart differ in nothing else."""
        self.active = False
        self._terminated = False
        self.trees: Dict[str, NameTree] = {
            v: self.new_tree(v) for v in self._initial_vspaces
        }
        self.stats = InrStats(self._memo_trees)
        self.membership = OverlayMembership(self)
        self.discovery = NameDiscovery(self)
        self.dataplane = DataPlane(self)
        self.custodian = Custodian(self)
        self.load = LoadControl(self)
        #: Two-phase vspace handoff state machines (PROTOCOL.md §11).
        self.delegation = DelegationCoordinator(self)
        # The components' state the rest of the tree reads by name.
        self.neighbors = self.membership.neighbors
        self.cache = self.dataplane.cache
        self.custody = self.custodian.store
        self.monitor = self.load.monitor
        #: ``_DISPATCH`` with each handler bound to this incarnation's
        #: component: payload type -> (handler, cost rule)
        self.dispatch = {
            message: (MethodType(handler, getattr(self, owner)), rule)
            for message, (owner, handler, rule) in self._DISPATCH.items()
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join the overlay and begin periodic protocol activity."""
        config = self.config
        jitter = TIMER_JITTER
        # every() draws jitter and sequence numbers in call order: the
        # order below is part of the determinism contract.
        self.every(
            config.refresh_interval, self.discovery.send_periodic_updates, jitter
        )
        self.every(config.expiry_sweep_interval, self._sweep, jitter)
        if self.custody is not None:
            self.every(CUSTODY_RETRY_INTERVAL, self.custodian.tick, jitter)
        if self.dsr_address is not None:
            self.every(config.heartbeat_interval, self.membership.heartbeat, jitter)
            if config.enable_load_balancing:
                self.every(config.load_check_interval, self.load.check, jitter)
            if config.enable_relaxation:
                self.every(RELAXATION_INTERVAL, self.membership.relax, jitter)
            self.membership.begin_join()
        else:
            self.active = True

    def terminate(self) -> None:
        """Leave the overlay: tell peers and the DSR, then stop."""
        if self._terminated:
            return
        # A retiring donor must not leave its recipient staging chunks
        # that will never arrive: abort the in-flight handoff first
        # (the flag flips after, so the abort message still sends).
        self.delegation.shutdown()
        self._terminated = True
        # Custody is single-hop: what this resolver still holds dies
        # with it, counted and traced like any packet that reaches it.
        self.custodian.retire()
        for neighbor in self.neighbors:
            self.send(neighbor.address, INR_PORT, PeerGoodbye(self.address))
        if self.dsr_address is not None:
            self.tell_dsr(DsrDeregister(self.address))
            if self.was_spawned:
                # A retiring helper returns its node to the candidate
                # pool so a later overload can spawn onto it again.
                self.tell_dsr(DsrRegisterCandidate(self.address))
        self.stop()

    def crash(self) -> None:
        """Fail silently: no goodbye, no deregistration (for fault
        injection). Peers and the DSR recover through soft state."""
        self._terminated = True
        if self.custody is not None:
            # Custody is stable storage: the payloads a custodian
            # accepted responsibility for survive its process and are
            # restored when the operator restarts it.
            self._custody_held = tuple(self.custody.entries())
        # Finalized delegation facts are stable storage too: which
        # vspaces left and which were adopted survive the process.
        # In-flight handoffs do NOT — the protocol aborts them.
        self._delegation_snapshot = self.delegation.crash_snapshot()
        self.stop()

    def restart(self) -> None:
        """Come back up on the same node after a crash.

        Models the operator restarting a resolver process on a host
        that rebooted: all in-memory state is gone. The restarted INR
        re-registers with the DSR, rejoins the overlay as if starting
        fresh, and rebuilds its name-trees from the periodic service
        advertisements and neighbor updates that soft state keeps
        flowing (Section 2.2) — no recovery protocol is needed.
        """
        if not self._terminated:
            raise RuntimeError("restart() is only valid after crash() or terminate()")
        if self.node.process_on(self.port) is not None:
            raise RuntimeError(
                f"port {self.port} on {self.address} was taken while this INR was down"
            )
        self.restarts += 1
        self._incarnate()
        # Re-apply the finalized delegation facts: delegated-away
        # vspaces leave the rebuilt tree set again, adopted ones come
        # back as empty trees that soft state refills.
        self.delegation.adopt_snapshot(self._delegation_snapshot)
        self._delegation_snapshot = ()
        self.node.bind(self.port, self)
        if self._custody_held:
            self.custodian.restore(self._custody_held)
            self._custody_held = ()
        self.start()

    @property
    def terminated(self) -> bool:
        """True after crash()/terminate() and before any restart()."""
        return self._terminated

    @property
    def vspaces(self) -> Tuple[str, ...]:
        return tuple(self.trees)

    def routes_vspace(self, vspace: str) -> bool:
        return vspace in self.trees

    def new_tree(self, vspace: str) -> NameTree:
        """An empty name-tree for ``vspace`` on this resolver's clock."""
        sim = self.sim
        return NameTree(vspace=vspace, clock=lambda: sim.now)

    def name_count(self, vspace: Optional[str] = None) -> int:
        """Live names in one vspace, or across all of them."""
        return sum(
            len(list(tree.records()))
            for name, tree in self.trees.items() if vspace in (None, name)
        )

    def drop_tree(self, vspace: str) -> None:
        """Stop routing ``vspace`` (delegated away, or an adoption
        rolled back); what its memo counted stays in the stats."""
        tree = self.trees.pop(vspace, None)
        if tree is not None:
            self.stats.retire(tree)

    def _memo_trees(self) -> List[NameTree]:
        """Every tree whose LOOKUP-NAME memo serves this resolver: what
        ``InrStats.lookup_memo_*`` sum over."""
        trees = list(self.trees.values())
        if self.cache is not None:
            trees.append(self.cache.index)
        return trees

    def _sweep(self) -> None:
        """The soft-state sweep: names first, then neighbors."""
        self.discovery.expire()
        self.membership.sweep()

    # ------------------------------------------------------------------
    # What the components share: the DSR, CPU charging, tracing (repro.obs)
    # ------------------------------------------------------------------
    def tell_dsr(self, payload: object) -> None:
        self.send(self.dsr_address, DSR_PORT, payload)

    def work(self, cost: float, continuation: Callable[..., None], *args) -> None:
        """Charge ``cost`` CPU seconds, then run ``continuation(*args)``."""
        self.node.cpu.execute(cost, continuation, *args)

    def work_last(self, cost: float, continuation: Callable[..., None], *args) -> None:
        """:meth:`work` as the last act of the running event: the
        continuation may run in place at the work's completion
        (``Cpu.execute_last``). Nothing after the call may read the
        clock or the state the continuation changes."""
        self.node.cpu.execute_last(cost, continuation, *args)

    def span_start(self, name: str, context, **tags):
        """Open a hop span joining ``context``'s trace.

        Returns None (and costs one attribute test) when the domain is
        untraced or the message carried no context — every span-taking
        path accepts that None.
        """
        if self.tracer is None or context is None:
            return None
        return self.tracer.start_span(
            name, node=self.address, parent=context, tags=tags or None
        )

    def span_end(self, span, status: str = STATUS_OK) -> None:
        if span is not None:
            self.tracer.end_span(span, status)

    def span_note(self, span, text: str) -> None:
        if span is not None:
            self.tracer.annotate(span, text)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def admit(self, payload: object, source: str) -> bool:
        """Accept everything: overload is cured by spawning a helper or
        delegating a vspace (``loadbalance``, Section 2.5), never by
        refusing work. Defined here, not only inherited, because the
        e2e ledger wraps ``vars(INR)["admit"]``."""
        return True

    def processing_cost(self, payload: object, size_bytes: int) -> float:
        entry = self.dispatch.get(type(payload))
        return self.costs.receive if entry is None else entry[1](self, payload)

    def handle_message(self, payload: object, source: str) -> None:
        if self._terminated:
            if isinstance(payload, DataPacket):
                self.stats.drops_terminated += 1
                # The context is 24 header bytes: a frame whose names do
                # not parse is still attributable to its trace.
                self._drop_span(
                    "terminated", lambda: Header.unpack(payload.raw).trace
                )
            return
        self.neighbors.heard_from(source, self.now)
        entry = self.dispatch.get(type(payload))
        if entry is None:
            # An unrecognized payload must be counted and trace-attributed,
            # not silently swallowed — this is how wire-format skew between
            # resolver versions surfaces.
            self.stats.drops_unknown_message += 1
            self._drop_span(
                "unknown-message",
                lambda: getattr(payload, "trace", None),
                payload_type=type(payload).__name__,
            )
        else:
            entry[0](payload, source)

    def _drop_span(self, cause: str, read_context: Callable, **tags) -> None:
        """A hop span that opens and ends as a drop, for a payload whose
        trace context may not even decode."""
        if self.tracer is not None:
            try:
                context = read_context()
            except ValueError:
                context = None
            self.span_end(
                self.span_start("inr.hop", context, **tags), DROP_PREFIX + cause
            )

    def __repr__(self) -> str:
        return (
            f"INR({self.address}, vspaces={list(self.trees)}, "
            f"names={self.name_count()}, neighbors={len(self.neighbors)})"
        )
