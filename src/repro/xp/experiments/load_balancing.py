"""Section 2.5 load balancing: spawn on lookup overload, delegate a
vspace on update overload.

Two workloads, each with a ``load_balancing`` arm that runs the same
load with the policy off: ``spawn-overload`` overloads one INR with
early-binding lookups, which must claim a candidate node and spawn a
helper that retires once idle; ``update-overload`` overloads an INR
routing two vspaces with refreshes, which must delegate one of them to
a spawned INR while its names stay resolvable through vspace
forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ...experiments.domain import InsDomain
from ...experiments.metrics import DomainSampler
from ...naming import NameSpecifier
from ...resolver import InrConfig
from ...resolver.ports import INR_PORT
from ...resolver.protocol import ResolutionRequest
from ..runner import SpecRun, Table, Workload, WorkloadResult, register_workload


@dataclass
class SpawnResult:
    inrs_before: int
    inrs_during_load: int
    inrs_after: int
    spawned_addresses: Tuple[str, ...]
    #: main INR's peak CPU utilization over 5 s sampling intervals
    main_peak_utilization: float = 0.0
    #: its LOWEST utilization over the second half of the load window —
    #: evidence that re-selection moved traffic off it at least part of
    #: the time (a single client oscillates between resolvers, so the
    #: minimum is the honest signal, not the tail).
    main_min_utilization_late: float = 0.0


def run_spawn_experiment(
    seed: int,
    load_balancing: bool,
    request_rate: float = 800.0,
    duration: float = 60.0,
) -> WorkloadResult:
    """Overload one INR with early-binding lookups; with candidates
    registered, the INR must spawn a helper (Section 2.5). With
    ``load_balancing`` off no helper appears and the resolver stays
    saturated for the whole run."""
    config = InrConfig(
        enable_load_balancing=load_balancing,
        spawn_lookup_rate=200.0,
        load_check_interval=5.0,
        refresh_interval=1e6,
    )
    domain = InsDomain(seed=seed, config=config)
    inr = domain.add_inr(address="inr-main")
    domain.add_candidate("spare-1")
    domain.add_candidate("spare-2")
    domain.add_service("[service=spawnme[id=s1]]", resolver=inr)
    # The client runs the configuration protocol (periodic re-selection)
    # so traffic genuinely moves to the spawned helper: INR-pings queue
    # behind a saturated resolver's CPU, making it look slow.
    client = domain.add_client(resolver=inr, reselect_interval=5.0)
    domain.settle()
    before = len(domain.dsr.active_inrs)
    query = NameSpecifier.parse("[service=spawnme]")
    interval = 1.0 / request_rate

    # An open-loop load generator through the client's CURRENT resolver.
    def blast() -> None:
        client.send(
            client.resolver or inr.address,
            INR_PORT,
            ResolutionRequest(
                name=query, reply_to=client.address, reply_port=client.port
            ),
        )

    sampler = DomainSampler(domain, interval=5.0).start()
    ticks = int(duration / interval)
    for i in range(ticks):
        domain.sim.schedule(i * interval, blast)
    domain.run(duration)  # load is still flowing at this snapshot
    during = domain.dsr.active_inrs
    spawned = tuple(a for a in during if a.startswith("spare"))
    series = sampler.series(inr.address)
    peak = max((s.cpu_utilization for s in series), default=0.0)
    late = [s.cpu_utilization for s in series[len(series) // 2:]]
    late_min = min(late) if late else 0.0
    sampler.stop()
    # After the load stops, spawned helpers (whose vspaces the original
    # INR still routes) self-terminate on idleness.
    domain.run(120.0)
    after = domain.dsr.active_inrs
    result = SpawnResult(
        inrs_before=before,
        inrs_during_load=len(during),
        inrs_after=len(after),
        spawned_addresses=spawned,
        main_peak_utilization=peak,
        main_min_utilization_late=late_min,
    )
    return WorkloadResult(
        metrics={
            "inrs_before": float(result.inrs_before),
            "inrs_during_load": float(result.inrs_during_load),
            "inrs_after": float(result.inrs_after),
            "spawned": float(len(result.spawned_addresses)),
            "main_peak_utilization": result.main_peak_utilization,
            "main_min_utilization_late": result.main_min_utilization_late,
        },
        details={"result": result},
    )


def _spawn_tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
    if not run.toggles.get("load_balancing"):
        return []
    result = run.baseline.details["result"]
    return [(
        "Ablation: spawn on lookup overload",
        ["INRs before", "INRs during load", "INRs after idle",
         "spawned nodes", "main peak util", "main min util (late)"],
        [(
            result.inrs_before,
            result.inrs_during_load,
            result.inrs_after,
            ",".join(result.spawned_addresses) or "-",
            f"{result.main_peak_utilization:.2f}",
            f"{result.main_min_utilization_late:.2f}",
        )],
    )]


register_workload(Workload(
    id="spawn-overload",
    description=(
        "lookup-overloaded INR claims candidates and spawns helpers "
        "while the load flows; helpers retire on idleness"
    ),
    toggles=("load_balancing",),
    primary_metrics={
        "load_balancing": ("main_min_utilization_late", "lower"),
    },
    run=run_spawn_experiment,
    suite_tables=_spawn_tables,
))


@dataclass
class DelegationResult:
    vspaces_before: Tuple[str, ...]
    vspaces_after: Tuple[str, ...]
    delegate_resolvers: Tuple[str, ...]
    still_resolvable: bool


def run_delegation_experiment(seed: int, load_balancing: bool) -> WorkloadResult:
    """Update-overload an INR routing two vspaces; it must delegate one
    to a spawned INR, and names in the delegated space must remain
    resolvable through vspace forwarding. With ``load_balancing`` off
    the overloaded resolver keeps both vspaces and nothing is shed."""
    config = InrConfig(
        enable_load_balancing=load_balancing,
        spawn_lookup_rate=1e9,  # never spawn for lookups in this run
        delegate_update_rate=50.0,
        load_check_interval=5.0,
        refresh_interval=2.0,  # rapid refreshes create update load
        record_lifetime=1e9,
    )
    domain = InsDomain(seed=seed, config=config)
    inr = domain.add_inr(address="inr-main", vspaces=("space-a", "space-b"))
    domain.add_candidate("spare-1")
    for i in range(150):
        space = "space-a" if i % 2 == 0 else "space-b"
        domain.add_service(
            f"[service=bulk[id=n{i}]][vspace={space}]",
            resolver=inr,
            refresh_interval=2.0,
        )
    before = inr.vspaces
    domain.run(40.0)
    after = inr.vspaces
    delegated = tuple(v for v in before if v not in after)
    resolvers = ()
    still = False
    if delegated:
        resolvers = domain.dsr.resolvers_for(delegated[0])
        client = domain.add_client(resolver=inr)
        probe = client.resolve_early(
            NameSpecifier.parse(f"[service=bulk][vspace={delegated[0]}]")
        )
        domain.run(5.0)
        still = probe.done and len(probe.value) > 0
    result = DelegationResult(
        vspaces_before=before,
        vspaces_after=after,
        delegate_resolvers=resolvers,
        still_resolvable=still,
    )
    return WorkloadResult(
        metrics={
            "vspaces_before": float(len(result.vspaces_before)),
            "vspaces_after": float(len(result.vspaces_after)),
            "vspaces_delegated": float(
                len(result.vspaces_before) - len(result.vspaces_after)
            ),
            "still_resolvable": float(result.still_resolvable),
        },
        details={"result": result},
    )


def _update_overload_tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
    if not run.toggles.get("load_balancing"):
        return []
    result = run.baseline.details["result"]
    return [(
        "Ablation: vspace delegation on update overload",
        ["vspaces before", "vspaces after", "delegate resolver",
         "delegated space still resolvable"],
        [(
            ",".join(result.vspaces_before),
            ",".join(result.vspaces_after),
            ",".join(result.delegate_resolvers) or "-",
            result.still_resolvable,
        )],
    )]


register_workload(Workload(
    id="update-overload",
    description=(
        "update-overloaded INR delegates one of its vspaces; the "
        "delegated names stay resolvable through vspace forwarding"
    ),
    toggles=("load_balancing",),
    primary_metrics={"load_balancing": ("vspaces_delegated", "higher")},
    run=run_delegation_experiment,
    suite_tables=_update_overload_tables,
))
