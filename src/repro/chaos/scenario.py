"""The chaos scenario harness: the domain a chaos run drives, the links
its faults may hit, its clocks and the standard stress.

:func:`run_chaos_scenario` is the standard stress: it builds a domain,
generates a seed-driven :class:`~repro.chaos.plan.FaultPlan` that
crashes a fraction of the resolvers (with restarts), flaps a fraction
of the overlay links, injects duplication/reordering, and fails the DSR
over to a warm standby — all while the always-invariants are sampled —
then waits out the convergence bound and checks the converged
invariants. The experiments built on this harness — availability,
DTN, delegation and the recovery-clocks sweep — are workloads of
:mod:`repro.xp.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..experiments.domain import InsDomain
from ..resolver import InrConfig
from .invariants import InvariantChecker, Violation
from .plan import ChaosController, FaultPlan
from .recovery import RecoveryTracker


def fast_chaos_config(
    refresh_interval: float = 1.0,
    neighbor_timeout: float = 4.0,
) -> InrConfig:
    """Soft-state clocks scaled down ~15x from the paper's defaults so a
    whole fault-and-recovery cycle fits in a short simulated run; the
    three-refreshes-per-lifetime soft-state rule is preserved."""
    return InrConfig(
        refresh_interval=refresh_interval,
        record_lifetime=3.0 * refresh_interval,
        expiry_sweep_interval=max(0.5, refresh_interval / 2.0),
        heartbeat_interval=max(0.5, refresh_interval * 2.0 / 3.0),
        neighbor_timeout=neighbor_timeout,
    )


def chaos_domain(
    seed: int,
    config: InrConfig,
    observe: bool = False,
    sweep_floor: float = 0.5,
) -> InsDomain:
    """The domain a chaos scenario runs in: DSR registrations live
    three of ``config``'s heartbeats and are swept twice per heartbeat
    (no faster than ``sweep_floor``), so a crashed resolver leaves the
    active list on the same clocks its peers time it out on. With
    ``observe`` an :class:`repro.obs.ObsCollector` is attached before
    any traffic flows (``domain.collector``)."""
    domain = InsDomain(
        seed=seed,
        config=config,
        dsr_registration_lifetime=3.0 * config.heartbeat_interval,
        dsr_sweep_interval=max(sweep_floor, config.heartbeat_interval / 2.0),
    )
    if observe:
        domain.observe()
    return domain


def fault_surface(domain: InsDomain, endpoints: Iterable) -> List[Tuple[str, str]]:
    """The links a fault plan may hit: every overlay edge plus each of
    ``endpoints``' (services, clients) link to its resolver, so every
    fault lands on a link that actually carries protocol traffic."""
    pairs = set()
    for inr in domain.live_inrs:
        for neighbor in inr.neighbors.addresses:
            pairs.add(tuple(sorted((inr.address, neighbor))))
    for process in endpoints:
        if process.resolver is not None:
            pairs.add(tuple(sorted((process.address, process.resolver))))
    return sorted(pairs)


@dataclass
class ChaosReport:
    """Everything a chaos run observed."""

    seed: int
    faults_applied: int
    fault_kinds: Tuple[str, ...]
    violations: List[Violation]
    converged_violations: List[Violation]
    invariant_samples: int
    mttr: Dict[str, Dict[str, float]]
    final_active: Tuple[str, ...]
    final_name_counts: Tuple[Tuple[str, int], ...]
    control_bytes: int
    sim_time: float

    @property
    def all_violations(self) -> List[Violation]:
        return self.violations + self.converged_violations


def run_chaos_scenario(
    seed: int = 0,
    n_inrs: int = 6,
    n_services: int = 4,
    chaos_duration: float = 30.0,
    config: Optional[InrConfig] = None,
) -> ChaosReport:
    """Run the standard chaos scenario and return its report.

    The domain gets one warm DSR replica, ``n_inrs`` resolvers and
    ``n_services`` services round-robined across them. The fault plan
    is generated from ``seed`` over the overlay's mutual peer edges and
    the service attachment links, so every fault hits a link or node
    that actually carries protocol traffic: 30% of the resolvers crash
    and restart 8 s later, 20% of the links flap and 20% turn noisy,
    and the DSR fails over once. The invariants are sampled every
    virtual second.
    """
    domain = chaos_domain(seed, config or fast_chaos_config())
    domain.add_dsr_replica()
    inrs = [domain.add_inr() for _ in range(n_inrs)]
    for index in range(n_services):
        domain.add_service(
            f"[service=chaos[id={index}]]", resolver=inrs[index % n_inrs]
        )
    domain.run(3.0)

    plan = FaultPlan.random(
        seed=seed,
        inr_addresses=[inr.address for inr in inrs],
        link_pairs=fault_surface(domain, domain.services),
        duration=chaos_duration,
        restart_after=8.0,
        dsr_failover=True,
        link_fault_fraction=0.2,
    )
    tracker = RecoveryTracker(domain, poll_interval=0.25)
    checker = InvariantChecker(domain).install(1.0)
    controller = ChaosController(domain, tracker=tracker)
    controller.execute(plan)

    domain.run(chaos_duration)
    bound = checker.convergence_bound()
    domain.run(bound)
    checker.uninstall()
    tracker.stop()
    converged = checker.check_converged()

    return ChaosReport(
        seed=seed,
        faults_applied=len(controller.applied),
        fault_kinds=plan.kinds,
        violations=list(checker.violations),
        converged_violations=converged,
        invariant_samples=checker.samples_taken,
        mttr=tracker.mttr_summary(),
        final_active=domain.dsr.active_inrs,
        final_name_counts=tuple(
            (inr.address, inr.name_count()) for inr in domain.live_inrs
        ),
        control_bytes=sum(link.stats.bytes for _pair, link in domain.network.links),
        sim_time=domain.now,
    )
