"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they check the Section 5.1.1
analytic model against measurements, quantify what overlay relaxation
buys, exercise the spawn/delegate load-balancing machinery, and measure
the packet cache.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..analysis import fit_parameters, lookup_time_closed_form
from ..naming import NameSpecifier
from ..nametree import NameTree
from ..resolver import InrConfig
from ..resolver.protocol import ResolutionRequest
from ..resolver.ports import INR_PORT
from .domain import InsDomain
from .workload import UniformWorkload


# ----------------------------------------------------------------------
# 1. The Section 5.1.1 model vs measured lookup times
# ----------------------------------------------------------------------
@dataclass
class ModelCheckRow:
    depth: int
    measured_us: float
    predicted_us: float


def run_lookup_model_check(
    depths: Sequence[int] = (1, 2, 3, 4),
    names_per_tree: int = 400,
    lookups: int = 300,
    attribute_range: int = 3,
    value_range: int = 3,
    attributes_per_level: int = 2,
    seed: int = 0,
) -> Tuple[List[ModelCheckRow], float, float]:
    """Measure lookup time as d grows and fit the paper's T(d) model
    to the measurements.

    Returns (rows, fitted_t_us, fitted_b_us). The shape to verify: the
    model tracks the measurements (it is exponential in d with base
    n_a).
    """

    def measure(depth: int) -> float:
        rng = random.Random(seed + depth)
        workload = UniformWorkload(
            rng=rng,
            depth=depth,
            attribute_range=attribute_range,
            value_range=value_range,
            attributes_per_level=attributes_per_level,
        )
        # The queries are drawn from at most ``target`` inserted names,
        # so most of them repeat: with the memo on, the fit would be to
        # memo hits, not to the n_a^d recursion (as in fig12's curve).
        tree = NameTree(memoize=False)
        target = min(
            names_per_tree,
            # shallow namespaces cannot produce many distinct names
            (attribute_range * value_range) ** min(depth, 2),
        )
        inserted = workload.distinct_names(target)
        from ..nametree import AnnouncerID, NameRecord

        for i, name in enumerate(inserted):
            tree.insert(
                name, NameRecord(announcer=AnnouncerID.generate(f"mc-{i}"))
            )
        # Query names known to be present so every lookup walks the
        # full n_a^d recursion instead of bailing out at a missing
        # attribute — that is the regime the T(d) model describes.
        queries = [inserted[rng.randrange(len(inserted))] for _ in range(lookups)]
        started = time.perf_counter()
        for query in queries:
            tree.lookup(query)
        return (time.perf_counter() - started) / lookups * 1e6

    measured = {d: measure(d) for d in depths}
    fit = fit_parameters(
        [(d, attributes_per_level, measured[d] / 1e6) for d in depths]
    )
    rows = [
        ModelCheckRow(
            depth=d,
            measured_us=measured[d],
            predicted_us=lookup_time_closed_form(
                d, attributes_per_level, fit.t, fit.b
            )
            * 1e6,
        )
        for d in depths
    ]
    return rows, fit.t * 1e6, fit.b * 1e6


# ----------------------------------------------------------------------
# 2. Overlay relaxation quality
# ----------------------------------------------------------------------
@dataclass
class RelaxationResult:
    initial_tree_cost: float
    relaxed_tree_cost: float
    optimal_like_cost: float


def _tree_cost(domain: InsDomain) -> float:
    """Sum of parent-edge link latencies over the overlay tree."""
    total = 0.0
    for inr in domain.inrs:
        parent = inr.neighbors.parent
        if parent is not None:
            link = domain.network.link(inr.address, parent.address)
            total += link.latency
    return total


def run_relaxation_experiment(
    inr_count: int = 8, seed: int = 0, rounds: float = 400.0
) -> RelaxationResult:
    """Show what relaxation buys when network conditions change.

    The join algorithm already picks each node's cheapest edge to an
    earlier node, so at join time the tree is greedily optimal. We then
    *degrade* every tree edge (as wireless conditions shifting would),
    leaving better alternatives unused. Without relaxation the overlay
    is stuck with the degraded edges; with it, INRs re-measure their
    parents, probe earlier-ordered alternatives and swap to cheaper
    edges.

    Returns the tree cost right after degradation, after relaxation
    rounds, and the greedy cost achievable under the new latencies.
    """
    rng = random.Random(seed)
    config = InrConfig(
        refresh_interval=50.0,
        enable_relaxation=True,
    )
    domain = InsDomain(seed=seed, config=config)
    addresses = [f"inr-{i}" for i in range(1, inr_count + 1)]
    latency: dict = {}
    for i, a in enumerate(addresses):
        for j in range(i):
            latency[(addresses[j], a)] = rng.uniform(0.001, 0.08)
            domain.network.configure_link(
                addresses[j], a, latency=latency[(addresses[j], a)]
            )
    for address in addresses:
        domain.add_inr(address=address, settle=2.0)

    # Conditions change: every current tree edge becomes 10x slower.
    for inr in domain.inrs:
        parent = inr.neighbors.parent
        if parent is not None:
            pair = (
                (parent.address, inr.address)
                if (parent.address, inr.address) in latency
                else (inr.address, parent.address)
            )
            latency[pair] = latency[pair] * 10.0
            domain.network.configure_link(pair[0], pair[1], latency=latency[pair])
    degraded = _tree_cost(domain)
    domain.run(rounds)
    relaxed = _tree_cost(domain)
    greedy = sum(
        min(
            latency.get((addresses[j], addresses[i]))
            if (addresses[j], addresses[i]) in latency
            else latency[(addresses[i], addresses[j])]
            for j in range(i)
        )
        for i in range(1, inr_count)
    )
    return RelaxationResult(
        initial_tree_cost=degraded,
        relaxed_tree_cost=relaxed,
        optimal_like_cost=greedy,
    )


# ----------------------------------------------------------------------
# 3. Load balancing: spawn on lookup overload, delegate on update load
# ----------------------------------------------------------------------
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
    request_rate: float = 800.0,
    duration: float = 60.0,
    seed: int = 0,
    enable_load_balancing: bool = True,
) -> SpawnResult:
    """Overload one INR with early-binding lookups; with candidates
    registered, the INR must spawn a helper (Section 2.5).
    ``enable_load_balancing=False`` runs the same load with the policy
    off — the ablation: no helper appears and the resolver stays
    saturated for the whole run."""
    config = InrConfig(
        enable_load_balancing=enable_load_balancing,
        spawn_lookup_rate=200.0,
        load_check_interval=5.0,
        refresh_interval=1e6,
    )
    domain = InsDomain(seed=seed, config=config)
    inr = domain.add_inr(address="inr-main")
    domain.add_candidate("spare-1")
    domain.add_candidate("spare-2")
    service = domain.add_service("[service=spawnme[id=s1]]", resolver=inr)
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

    from .metrics import DomainSampler

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
    return SpawnResult(
        inrs_before=before,
        inrs_during_load=len(during),
        inrs_after=len(after),
        spawned_addresses=spawned,
        main_peak_utilization=peak,
        main_min_utilization_late=late_min,
    )


@dataclass
class DelegationResult:
    vspaces_before: Tuple[str, ...]
    vspaces_after: Tuple[str, ...]
    delegate_resolvers: Tuple[str, ...]
    still_resolvable: bool


def run_delegation_experiment(
    seed: int = 0, enable_load_balancing: bool = True
) -> DelegationResult:
    """Update-overload an INR routing two vspaces; it must delegate one
    to a spawned INR, and names in the delegated space must remain
    resolvable through vspace forwarding.
    ``enable_load_balancing=False`` is the ablation: the overloaded
    resolver keeps both vspaces and nothing is shed."""
    config = InrConfig(
        enable_load_balancing=enable_load_balancing,
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
    return DelegationResult(
        vspaces_before=before,
        vspaces_after=after,
        delegate_resolvers=resolvers,
        still_resolvable=still,
    )


# ----------------------------------------------------------------------
# 4. Packet-cache effectiveness (the Camera extension, Section 3.2)
# ----------------------------------------------------------------------
@dataclass
class CacheResult:
    requests: int
    origin_served: int
    cache_answers: int


def run_cache_experiment(
    requests: int = 10, seed: int = 0, packet_cache: bool = True
) -> CacheResult:
    """Repeatedly request the same camera frame with caching enabled;
    after the first response is cached at the client's INR, the origin
    should stop seeing requests. ``packet_cache=False`` disables the
    INR caches (the controlled ablation: every request reaches the
    origin)."""
    from ..apps import CameraReceiver, CameraTransmitter

    config = InrConfig(
        refresh_interval=5.0,
        packet_cache_size=128 if packet_cache else 0,
    )
    domain = InsDomain(seed=seed, config=config)
    inr_a = domain.add_inr(address="inr-a")
    inr_b = domain.add_inr(address="inr-b")
    cam_node = domain.network.add_node("cam-host")
    cam = CameraTransmitter(
        cam_node,
        domain.ports.allocate(),
        camera_id="c1",
        room="510",
        resolver=inr_a.address,
        cache_lifetime=60,
    )
    cam.start()
    rx_node = domain.network.add_node("rx-host")
    receiver = CameraReceiver(
        rx_node,
        domain.ports.allocate(),
        receiver_id="r1",
        room="510",
        resolver=inr_b.address,
    )
    receiver.start()
    domain.settle()
    for i in range(requests):
        domain.sim.schedule(i * 0.5, receiver.request_frame, None, True)
    domain.run(requests * 0.5 + 5.0)
    return CacheResult(
        requests=requests,
        origin_served=cam.requests_served,
        cache_answers=inr_b.stats.packets_answered_from_cache
        + inr_a.stats.packets_answered_from_cache,
    )


# ----------------------------------------------------------------------
# 5. Soft-state refresh interval: overhead vs responsiveness
# ----------------------------------------------------------------------
def _seconds_until(domain: InsDomain, holds: Callable[[], bool], what: str) -> float:
    """Step ``domain`` one event at a time until ``holds()``: the
    virtual seconds that took, infinity if the simulation drained
    first. Five million events without it is a hang, and raises."""
    started = domain.now
    for _ in range(5_000_000):
        if not domain.sim.step():
            return math.inf
        if holds():
            return domain.now - started
    raise RuntimeError(f"{what} never happened")


@dataclass
class SoftStateRow:
    refresh_interval: float
    control_bytes_per_second: float
    stale_name_removal_s: float


def run_softstate_experiment(
    refresh_intervals: Sequence[float] = (2.0, 5.0, 15.0),
    services: int = 10,
    seed: int = 0,
) -> List[SoftStateRow]:
    """Quantify the paper's Section 7 tuning concern: faster refreshes
    buy faster removal of dead names at the price of bandwidth.

    For each interval (lifetime = 3x interval, the suite-wide rule):
    measure steady-state control traffic on the inter-INR link, then
    kill one service and measure how long its name lingers at the
    *remote* resolver.
    """
    from ..resolver import InrConfig

    rows: List[SoftStateRow] = []
    for interval in refresh_intervals:
        lifetime = 3.0 * interval
        domain = InsDomain(
            seed=seed,
            config=InrConfig(refresh_interval=interval, record_lifetime=lifetime),
        )
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        victims = []
        for index in range(services):
            victims.append(
                domain.add_service(
                    f"[service=ss[id=n{index}]]",
                    resolver=a,
                    refresh_interval=interval,
                    lifetime=lifetime,
                )
            )
        domain.run(2.0 * interval)  # reach steady state
        link = domain.network.link("inr-a", "inr-b")
        bytes_before = link.stats.bytes
        window = 4.0 * interval
        domain.run(window)
        rate = (link.stats.bytes - bytes_before) / window

        victims[0].stop()
        rows.append(
            SoftStateRow(
                refresh_interval=interval,
                control_bytes_per_second=rate,
                stale_name_removal_s=_seconds_until(
                    domain,
                    lambda: b.name_count() < services,
                    "stale name removal",
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# 6. Footnote 3: soft-state flooding vs reliable-delta updates
# ----------------------------------------------------------------------
@dataclass
class UpdateModeRow:
    mode: str
    steady_state_bytes_per_second: float
    stale_name_removal_s: float
    change_propagation_s: float


def run_update_mode_comparison(
    services: int = 20,
    seed: int = 0,
) -> List[UpdateModeRow]:
    """Compare the paper's soft-state dissemination with the footnote-3
    reliable-delta alternative on three axes: steady-state inter-INR
    bandwidth, how fast a dead service's name vanishes one hop away,
    and how fast a metric change propagates.
    """
    from ..naming import NameSpecifier
    from ..resolver import InrConfig

    rows: List[UpdateModeRow] = []
    for mode in ("soft-state", "reliable-delta"):
        domain = InsDomain(
            seed=seed,
            config=InrConfig(
                update_mode=mode, refresh_interval=15.0, record_lifetime=45.0
            ),
        )
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        victims = [
            domain.add_service(
                f"[service=um[id=n{i}]]", resolver=a,
                refresh_interval=15.0, lifetime=45.0,
                metric=1.0,
            )
            for i in range(services)
        ]
        domain.run(20.0)
        link = domain.network.link("inr-a", "inr-b")
        bytes_before = link.stats.bytes
        window = 60.0
        domain.run(window)
        rate = (link.stats.bytes - bytes_before) / window

        # Change propagation: flip one metric, watch it land at b.
        probe = NameSpecifier.parse("[service=um[id=n1]]")
        victims[1].set_metric(9.0)

        def metric_landed() -> bool:
            records = b.trees["default"].lookup(probe)
            return bool(records) and next(iter(records)).anycast_metric == 9.0

        change_lag = _seconds_until(domain, metric_landed, "metric propagation")

        # Staleness: kill one service, watch its name vanish at b.
        victims[0].stop()
        removal = _seconds_until(
            domain, lambda: b.name_count() < services, "stale name removal"
        )

        rows.append(
            UpdateModeRow(
                mode=mode,
                steady_state_bytes_per_second=rate,
                stale_name_removal_s=removal,
                change_propagation_s=change_lag,
            )
        )
    return rows
