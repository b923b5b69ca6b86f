"""Figure 14: discovery time of a new name vs overlay hops.

The paper advertises a new name at one end of an INR chain and measures
how long until resolvers h hops away have discovered it (grafted it
into their name-trees). Per Section 5.2,

    T_d(h) = h (T_lookup + T_graft + T_update + d_link)

so discovery time is linear in the hop count, with a measured slope
under 10 ms/hop — typical discovery times of a few tens of ms.

We build a chain overlay (link latencies make each joining INR pick the
previous one as its minimum-RTT peer), advertise one new name at the
head, and record the exact virtual time each INR grafts it, by stepping
the simulator event by event.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from ..naming import NameSpecifier
from ..resolver import InrConfig
from .domain import InsDomain


@dataclass
class DiscoveryRow:
    """Discovery time at one hop distance."""

    hops: int
    discovery_ms: float


def build_chain_domain(
    length: int,
    chain_latency: float = 0.002,
    seed: int = 0,
) -> InsDomain:
    """An InsDomain whose INRs form a chain overlay of ``length`` nodes.

    Link latencies are shaped so that INR-pings make each joining INR
    choose its chain predecessor: adjacent links take
    ``chain_latency``, all other pairs a slow 50 ms. (The DSR links
    stay at the default.)
    """
    domain = InsDomain(seed=seed, config=InrConfig(refresh_interval=1e6))
    addresses = [f"chain-{i}" for i in range(1, length + 1)]
    for i, a in enumerate(addresses):
        for j in range(i):
            latency = chain_latency if i - j == 1 else 0.05
            domain.network.configure_link(addresses[j], a, latency=latency)
    for address in addresses:
        domain.add_inr(address=address, settle=2.0)
    return domain


def run_discovery_experiment(
    max_hops: int = 8,
    seed: int = 0,
    chain_latency: float = 0.002,
    observe: bool = False,
) -> Tuple[List[DiscoveryRow], Optional[object]]:
    """Reproduce Figure 14 on a chain of ``max_hops + 1`` INRs.
    Returns ``(rows, collector)``.

    Hop h is the h-th resolver away from the one the new service
    attached to; discovery time is when h's tree first contains the
    name.

    ``observe=True`` runs the chain under an
    :class:`~repro.obs.ObsCollector` with per-event simulator profiling;
    the harvested metrics explain the slope (update fan-out per hop,
    per-INR name counts, per-link traffic) rather than just reporting
    it. Unobserved, the collector is None.
    """
    domain = build_chain_domain(max_hops + 1, chain_latency=chain_latency, seed=seed)
    if observe:
        domain.observe(profile_events=True)
    # Verify the topology really is a chain; a mis-built overlay would
    # silently turn the linear-in-hops claim into something else.
    for index, inr in enumerate(domain.inrs[1:], start=1):
        parent = inr.neighbors.parent
        expected = f"chain-{index}"
        if parent is None or parent.address != expected:
            raise RuntimeError(
                f"overlay is not a chain: {inr.address} joined via "
                f"{parent.address if parent else None}, expected {expected}"
            )
    head = domain.inrs[0]
    baseline = {inr.address: inr.name_count() for inr in domain.inrs}
    domain.add_service(
        "[service=fig14[entity=new-name]]", resolver=head, refresh_interval=1e6
    )
    announced_at = domain.now
    discovered_at = {}
    # Step event by event so each graft is timestamped exactly.
    guard = 0
    while len(discovered_at) <= max_hops and domain.sim.step():
        guard += 1
        if guard > 2_000_000:
            raise RuntimeError("discovery did not complete; overlay broken?")
        for inr in domain.inrs:
            if inr.address not in discovered_at and inr.name_count() > baseline[inr.address]:
                discovered_at[inr.address] = domain.now
    rows = []
    for hop in range(1, max_hops + 1):
        address = f"chain-{hop + 1}"
        if address not in discovered_at:
            raise RuntimeError(f"name never reached {address}")
        rows.append(
            DiscoveryRow(
                hops=hop,
                discovery_ms=(discovered_at[address] - announced_at) * 1000.0,
            )
        )
    return rows, domain.harvest()


def bench_discovery_payload(
    rows: Sequence[DiscoveryRow], collector: Optional[object] = None
) -> dict:
    """The ``BENCH_discovery.json`` payload: the Figure 14 curve plus,
    when a collector from an ``observe=True`` run is given, an
    ``observability`` section (metrics snapshot + span summary)
    explaining where the per-hop milliseconds went."""
    payload = {
        "benchmark": "fig14-discovery-time",
        "schema_version": 1,
        "rows": [asdict(row) for row in rows],
        "slope_ms_per_hop": round(slope_ms_per_hop(rows), 6),
    }
    if collector is not None:
        payload["observability"] = collector.observability_payload()
    return payload


def slope_ms_per_hop(rows: Sequence[DiscoveryRow]) -> float:
    """Least-squares slope of discovery time vs hops, in ms/hop."""
    n = len(rows)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    mean_x = sum(r.hops for r in rows) / n
    mean_y = sum(r.discovery_ms for r in rows) / n
    numerator = sum((r.hops - mean_x) * (r.discovery_ms - mean_y) for r in rows)
    denominator = sum((r.hops - mean_x) ** 2 for r in rows)
    return numerator / denominator
