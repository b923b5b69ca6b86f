"""Figure 8: CPU vs bandwidth saturation under name-update load.

The paper pushes randomly generated ~82-byte intentional names between
INRs with a 15-second refresh interval over ~1 Mbps wireless links and
finds the process is **CPU-bound**: the Pentium II saturates (100% CPU)
well before the link reaches 1 Mbps — around 13-15k names per refresh
interval, where bandwidth consumption is still under 1 Mbps.

Here a feeder process streams an ``UpdateBatch`` of n names to one INR
every refresh interval across a 1 Mbps link; the INR's simulated CPU
charges the calibrated per-name update cost (see
:class:`repro.resolver.costs.CostModel`). The shape to reproduce: the
CPU utilization line crosses 100% while the bandwidth line is still
comfortably below it. The ``saturation`` workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ...experiments.workload import UniformWorkload
from ...nametree import AnnouncerID, Endpoint
from ...netsim import Network, Process, Simulator
from ...resolver import INR, InrConfig, NameUpdate, UpdateBatch
from ...resolver.ports import INR_PORT
from ..runner import Workload, WorkloadResult, register_workload
from . import sweep_result, sweep_tables


@dataclass
class SaturationRow:
    """One point of the Figure 8 curves."""

    total_names: int
    cpu_percent: float
    bandwidth_percent: float
    bytes_per_interval: int


class _UpdateFeeder(Process):
    """Plays the INR network: pushes one update batch per interval."""

    def __init__(self, node, port, target: str, updates: List[NameUpdate], interval: float):
        super().__init__(node, port)
        self._target = target
        self._updates = updates
        self._interval = interval

    def start(self) -> None:
        self.every(self._interval, self.push, fire_immediately=True)

    def push(self) -> None:
        self.send(
            self._target,
            INR_PORT,
            UpdateBatch(sender=self.address, updates=self._updates, triggered=False),
        )


def _build_updates(count: int, seed: int, lifetime: float, vspace: str) -> List[NameUpdate]:
    # depth=2, n_a=2 with unpadded tokens yields ~84 bytes per name on
    # the wire (name text + endpoints + metrics + AnnouncerID), matching
    # the paper's randomly-generated 82-byte intentional names.
    workload = UniformWorkload(
        rng=random.Random(seed),
        depth=2,
        attribute_range=4,
        value_range=4,
        attributes_per_level=2,
        token_pad=0,
    )
    names = workload.distinct_names(count) if count else []
    return [
        NameUpdate(
            name=name,
            announcer=AnnouncerID.generate(f"fig08-{seed}-{index}"),
            endpoints=(Endpoint(host=f"origin-{index}", port=1),),
            anycast_metric=0.0,
            route_metric=0.001,
            lifetime=lifetime,
            vspace=vspace,
        )
        for index, name in enumerate(names)
    ]


#: The table's columns; every one but the first is a metric per point.
COLUMNS = [
    ("names", "total_names", ""),
    ("cpu %", "cpu_percent", ".1f"),
    ("bandwidth %", "bandwidth_percent", ".1f"),
    ("bytes/interval", "bytes_per_interval", ""),
]


def run_saturation_experiment(
    seed: int,
    name_counts: Sequence[int] = (0, 2500, 5000, 7500, 10000, 12500, 15000, 17500, 20000),
    refresh_interval: float = 15.0,
    link_bandwidth_bps: float = 1_000_000.0,
    measure_intervals: int = 2,
) -> WorkloadResult:
    """Reproduce Figure 8. One fresh simulation per point."""
    rows: List[SaturationRow] = []
    for count in name_counts:
        sim = Simulator(seed=seed)
        network = Network(sim, default_bandwidth_bps=link_bandwidth_bps)
        inr_node = network.add_node("inr")
        feeder_node = network.add_node("feeder")
        link = network.configure_link("feeder", "inr", bandwidth_bps=link_bandwidth_bps)
        config = InrConfig(
            refresh_interval=refresh_interval,
            record_lifetime=refresh_interval * 3,
        )
        inr = INR(inr_node, dsr_address=None, config=config)
        inr.start()
        updates = _build_updates(count, seed, lifetime=refresh_interval * 3, vspace="default")
        feeder = _UpdateFeeder(feeder_node, 9000, "inr", updates, refresh_interval)
        feeder.start()

        # Warm-up: the first batch grafts every name (more expensive in
        # real terms though not in model cost); measure steady refreshes.
        sim.run(until=refresh_interval)
        busy_before = inr_node.cpu.busy_seconds
        bytes_before = link.stats.bytes
        window = refresh_interval * measure_intervals
        sim.run(until=refresh_interval + window)
        busy = inr_node.cpu.busy_seconds - busy_before
        transferred = link.stats.bytes - bytes_before
        rows.append(
            SaturationRow(
                total_names=count,
                cpu_percent=100.0 * busy / window,
                bandwidth_percent=100.0
                * (transferred * 8.0 / window)
                / link_bandwidth_bps,
                bytes_per_interval=transferred // measure_intervals,
            )
        )
    return sweep_result(rows, COLUMNS)


register_workload(Workload(
    id="saturation",
    description="Figure 8: INR CPU vs 1 Mbps link use as refreshed names grow",
    run=run_saturation_experiment,
    suite_tables=sweep_tables(
        "Figure 8: CPU vs bandwidth saturation (15 s refresh, 1 Mbps link)",
        COLUMNS,
    ),
))
