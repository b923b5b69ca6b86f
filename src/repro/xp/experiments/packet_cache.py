"""The Camera packet cache (Section 3.2) on repeated requests.

A receiver asks for the same camera frame again and again through two
INRs; with caching on, the first response is cached at the INRs and the
origin should stop seeing requests. The ``packet-cache`` workload: its
``packet_cache`` arm disables the INR caches, so every request reaches
the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...apps import CameraReceiver, CameraTransmitter
from ...experiments.domain import InsDomain
from ...resolver import InrConfig
from ..runner import SpecRun, Table, Workload, WorkloadResult, register_workload


@dataclass
class CacheResult:
    requests: int
    origin_served: int
    cache_answers: int


def run_cache_experiment(
    seed: int, packet_cache: bool, requests: int = 10
) -> WorkloadResult:
    """Repeatedly request the same camera frame, the INR caches on or
    off; count what the origin served and what the caches answered."""
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
    result = CacheResult(
        requests=requests,
        origin_served=cam.requests_served,
        cache_answers=inr_b.stats.packets_answered_from_cache
        + inr_a.stats.packets_answered_from_cache,
    )
    return WorkloadResult(
        metrics={
            "requests": float(result.requests),
            "origin_served": float(result.origin_served),
            "cache_answers": float(result.cache_answers),
            "cache_served_fraction": (
                result.cache_answers / result.requests
                if result.requests
                else 0.0
            ),
        },
        details={"result": result},
    )


def _cache_tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
    if not run.toggles.get("packet_cache"):
        return []
    result = run.baseline.details["result"]
    return [(
        "Ablation: INR packet cache on repeated Camera requests",
        ["requests", "served by origin", "answered from cache"],
        [(result.requests, result.origin_served, result.cache_answers)],
    )]


register_workload(Workload(
    id="packet-cache",
    description=(
        "repeated cacheable Camera requests through two INRs; the "
        "origin should serve once and the caches absorb the rest"
    ),
    toggles=("packet_cache",),
    primary_metrics={"packet_cache": ("origin_served", "lower")},
    run=run_cache_experiment,
    suite_tables=_cache_tables,
))
