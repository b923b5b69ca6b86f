"""Convenience wiring for whole-domain experiments and applications.

:class:`InsDomain` assembles a simulator, a network, a DSR and any
number of INRs, services and clients, and provides the spawner hook the
load-balancing machinery needs. Every example, integration test and
benchmark builds on it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from ..client import InsClient, Service
from ..naming import NameSpecifier
from ..netsim import Network, Node, Simulator
from ..overlay import DomainSpaceResolver, DsrRegisterCandidate
from ..resolver import (
    DEFAULT_COSTS,
    DSR_PORT,
    INR,
    CostModel,
    InrConfig,
    PortAllocator,
)

#: Address of the node hosting the DSR in every domain.
DSR_HOST = "dsr-host"

ResolverRef = Union[str, INR, None]


class InsDomain:
    """One INS administrative domain inside a simulator."""

    def __init__(
        self,
        seed: int = 0,
        default_loss_rate: float = 0.0,
        config: Optional[InrConfig] = None,
        costs: Optional[CostModel] = None,
        dsr_registration_lifetime: Optional[float] = None,
        dsr_sweep_interval: Optional[float] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, default_loss_rate=default_loss_rate)
        self.config = config or InrConfig()
        self.costs = costs or DEFAULT_COSTS
        self.ports = PortAllocator()
        self._counters: Dict[str, itertools.count] = {}
        self._dsr_kwargs: Dict[str, float] = {}
        if dsr_registration_lifetime is not None:
            self._dsr_kwargs["registration_lifetime"] = dsr_registration_lifetime
        if dsr_sweep_interval is not None:
            self._dsr_kwargs["sweep_interval"] = dsr_sweep_interval
        dsr_node = self.network.add_node(DSR_HOST)
        self.dsr = DomainSpaceResolver(dsr_node, **self._dsr_kwargs)
        self.dsr.start()
        self.inrs: List[INR] = []
        self.services: List[Service] = []
        self.clients: List[InsClient] = []
        self.dsr_replicas: List[DomainSpaceResolver] = []
        #: The run's ObsCollector once :meth:`observe` has been called.
        self.collector = None

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _fresh_address(self, prefix: str) -> str:
        counter = self._counters.setdefault(prefix, itertools.count(1))
        return f"{prefix}-{next(counter)}"

    def _node_for(self, address: Optional[str], prefix: str, cpu_speed: float = 1.0) -> Node:
        if address is None:
            address = self._fresh_address(prefix)
        if self.network.has_node(address):
            return self.network.node(address)
        return self.network.add_node(address, cpu_speed=cpu_speed)

    @staticmethod
    def _resolver_address(resolver: ResolverRef) -> Optional[str]:
        if resolver is None:
            return None
        if isinstance(resolver, INR):
            return resolver.address
        return resolver

    # ------------------------------------------------------------------
    # Resolvers
    # ------------------------------------------------------------------
    def add_inr(
        self,
        address: Optional[str] = None,
        vspaces: Tuple[str, ...] = ("default",),
        cpu_speed: float = 1.0,
        config: Optional[InrConfig] = None,
        costs: Optional[CostModel] = None,
        settle: float = 1.0,
        was_spawned: bool = False,
    ) -> INR:
        """Start an INR and (by default) run the simulator briefly so it
        finishes joining the overlay before the caller proceeds."""
        node = self._node_for(address, "inr", cpu_speed)
        inr = INR(
            node,
            dsr_address=DSR_HOST,
            vspaces=vspaces,
            config=config or self.config,
            costs=costs or self.costs,
            spawner=self.spawn_inr,
            was_spawned=was_spawned,
        )
        self.inrs.append(inr)
        if self.collector is not None:
            inr.tracer = self.collector.tracer
        inr.start()
        if settle > 0:
            self.sim.run_for(settle)
        return inr

    def spawn_inr(self, candidate_address: str, vspaces: Tuple[str, ...]) -> INR:
        """The spawner hook handed to every INR (Section 2.5)."""
        return self.add_inr(
            address=candidate_address, vspaces=vspaces, settle=0.0, was_spawned=True
        )

    def add_dsr_replica(self, address: Optional[str] = None):
        """Start a DSR replica mirroring the primary (Section 2.4:
        "may be replicated for fault-tolerance"). Returns the replica
        process; point INRs or clients at its address to use it."""
        node = self._node_for(address, "dsr-replica")
        replica = DomainSpaceResolver(node, peers=(DSR_HOST,), **self._dsr_kwargs)
        replica.start()
        self.dsr.add_peer(node.address)
        self.dsr_replicas.append(replica)
        return replica

    # ------------------------------------------------------------------
    # Chaos hooks: crash, restart, failover
    # ------------------------------------------------------------------
    def inr_at(self, address: str) -> Optional[INR]:
        """The most recent INR hosted at ``address`` (live or crashed)."""
        found = None
        for inr in self.inrs:
            if inr.address == address:
                found = inr
        return found

    @property
    def live_inrs(self) -> List[INR]:
        """Every INR that is currently up (not crashed or terminated)."""
        return [inr for inr in self.inrs if not inr.terminated]

    def crash_inr(self, target: Union[str, INR]) -> INR:
        """Fail a resolver silently (no goodbye, no deregistration)."""
        inr = self.inr_at(target) if isinstance(target, str) else target
        if inr is None:
            raise ValueError(f"no INR at {target!r}")
        inr.crash()
        return inr

    def restart_inr(self, target: Union[str, INR]) -> INR:
        """Bring a crashed resolver back up on the same node."""
        inr = self.inr_at(target) if isinstance(target, str) else target
        if inr is None:
            raise ValueError(f"no INR at {target!r}")
        inr.restart()
        return inr

    def fail_over_dsr(self) -> DomainSpaceResolver:
        """Kill the primary DSR and promote a standby onto the
        well-known address.

        The promoted process is seeded from the first live replica's
        state (a warm standby); with no replicas it starts empty and the
        INRs' soft-state heartbeats rebuild the registration state
        within one heartbeat interval. Replicas keep mirroring to the
        well-known address, so they now feed the new primary.
        """
        self.dsr.stop()
        node = self.network.node(DSR_HOST)
        live_replicas = [
            replica
            for replica in self.dsr_replicas
            if replica.node.process_on(DSR_PORT) is replica
        ]
        promoted = DomainSpaceResolver(
            node,
            peers=tuple(replica.address for replica in live_replicas),
            **self._dsr_kwargs,
        )
        if live_replicas:
            promoted.adopt(live_replicas[0].snapshot())
        promoted.start()
        self.dsr = promoted
        return promoted

    def add_candidate(self, address: Optional[str] = None) -> str:
        """Create a spare node and register it as an INR candidate."""
        node = self._node_for(address, "candidate")
        self.network.send(
            DSR_HOST, DSR_HOST, DSR_PORT, DsrRegisterCandidate(node.address), 28
        )
        self.sim.run_for(0.01)
        return node.address

    # ------------------------------------------------------------------
    # Applications
    # ------------------------------------------------------------------
    def add_service(
        self,
        name: Union[NameSpecifier, str],
        address: Optional[str] = None,
        resolver: ResolverRef = None,
        metric: float = 0.0,
        lifetime: Optional[float] = None,
        refresh_interval: Optional[float] = None,
        service_class=Service,
        **extra,
    ) -> Service:
        """Start a service announcing ``name`` (a specifier or wire text)."""
        if isinstance(name, str):
            name = NameSpecifier.parse(name)
        node = self._node_for(address, "svc")
        service = service_class(
            node,
            self.ports.allocate(),
            name=name,
            resolver=self._resolver_address(resolver),
            dsr_address=DSR_HOST,
            metric=metric,
            lifetime=lifetime if lifetime is not None else self.config.record_lifetime,
            refresh_interval=(
                refresh_interval
                if refresh_interval is not None
                else self.config.refresh_interval
            ),
            **extra,
        )
        self.services.append(service)
        service.start()
        return service

    def add_client(
        self,
        address: Optional[str] = None,
        resolver: ResolverRef = None,
        client_class=InsClient,
        **extra,
    ) -> InsClient:
        node = self._node_for(address, "client")
        client = client_class(
            node,
            self.ports.allocate(),
            resolver=self._resolver_address(resolver),
            dsr_address=DSR_HOST,
            **extra,
        )
        self.clients.append(client)
        if self.collector is not None:
            client.tracer = self.collector.tracer
        client.start()
        return client

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def observe(self, profile_events: bool = False):
        """Attach an :class:`~repro.obs.ObsCollector` to the domain.

        Installs one shared tracer on every current and future INR and
        client (spawned helpers inherit it through :meth:`add_inr`), so
        each client request produces a complete hop-by-hop span tree.
        ``profile_events=True`` additionally counts every simulator
        event by callback. Idempotent: repeated calls return the same
        collector. Call :meth:`harvest` at the end of the run to file
        the per-component stats into the collector's counters and
        gauges.
        """
        from ..obs import ObsCollector

        if self.collector is None:
            self.collector = ObsCollector(clock=lambda: self.sim.now)
            if profile_events:
                self.collector.profile_simulator(self.sim)
        tracer = self.collector.tracer
        for inr in self.inrs:
            inr.tracer = tracer
        for client in self.clients:
            client.tracer = tracer
        return self.collector

    def harvest(self):
        """File every component's stats into the collector's counters
        and gauges (labelled per INR / client / link) and return it; a
        run nobody observed has no collector and returns None, so a
        driver ends in ``domain.harvest()`` either way. Each call files
        the stats as they stand, replacing what the last one filed."""
        if self.collector is not None:
            self.collector.harvest_domain(self)
        return self.collector

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, seconds: float) -> None:
        """Advance the whole domain by ``seconds`` of virtual time."""
        self.sim.run_for(seconds)

    def settle(self) -> None:
        """Run long enough for joins, advertisements and one round of
        update propagation to quiesce across the domain."""
        self.sim.run_for(2.0)

    @property
    def now(self) -> float:
        return self.sim.now
