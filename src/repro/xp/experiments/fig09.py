"""Figure 9: periodic update time with virtual-space partitioning.

The paper splits the namespace into two equally-sized virtual spaces
and compares the time to process a periodic update round in three
configurations:

1. one vspace on one machine,
2. two vspaces on one machine,
3. two vspaces on two machines (one each).

The finding: splitting vspaces on a *single* machine does not help (the
machine still processes every name), but distributing the two vspaces
onto two resolvers halves the per-machine processing time — the paper's
namespace-partitioning scaling technique (Section 2.5).

We build each configuration, deliver one full update round, and measure
the per-machine processing makespan (the maximum over machines). The
``partition`` workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ...experiments.workload import UniformWorkload
from ...nametree import AnnouncerID, Endpoint
from ...netsim import Network, Simulator
from ...resolver import INR, InrConfig, NameUpdate, UpdateBatch
from ...resolver.ports import INR_PORT
from ..runner import Workload, WorkloadResult, register_workload
from . import sweep_result, sweep_tables


@dataclass
class PartitionRow:
    """One point of the Figure 9 curves (times in milliseconds)."""

    total_names: int
    one_vspace_one_machine_ms: float
    two_vspaces_one_machine_ms: float
    two_vspaces_two_machines_ms: float


def _updates_for_vspace(
    count: int, vspace: str, seed: int, lifetime: float
) -> List[NameUpdate]:
    workload = UniformWorkload(
        rng=random.Random(seed),
        depth=2,
        attribute_range=4,
        value_range=4,
        attributes_per_level=2,
        token_pad=1,
    )
    return [
        NameUpdate(
            name=name,
            announcer=AnnouncerID.generate(f"fig09-{vspace}-{seed}-{i}"),
            endpoints=(Endpoint(host=f"origin-{vspace}-{i}", port=1),),
            anycast_metric=0.0,
            route_metric=0.001,
            lifetime=lifetime,
            vspace=vspace,
        )
        for i, name in enumerate(workload.distinct_names(count))
    ]


def _measure_round(
    assignments: Sequence[Tuple[Tuple[str, ...], List[List[NameUpdate]]]],
    seed: int,
) -> float:
    """Run one update round; return the max per-machine makespan in ms.

    ``assignments`` lists, per machine, the vspaces its INR routes and
    the update batches delivered to it.
    """
    sim = Simulator(seed=seed)
    network = Network(sim)
    config = InrConfig(refresh_interval=1e9, record_lifetime=1e9)
    nodes = []
    for index, (vspaces, batches) in enumerate(assignments):
        node = network.add_node(f"machine-{index}")
        inr = INR(node, dsr_address=None, vspaces=vspaces, config=config)
        inr.start()
        nodes.append(node)
        feeder = network.add_node(f"feeder-{index}")
        # Figure 9 isolates *processing* time, so the delivery link is
        # made effectively infinite; Figure 8 is where bandwidth counts.
        network.configure_link(
            feeder.address, node.address, latency=0.0, bandwidth_bps=1e12
        )
        for batch_number, updates in enumerate(batches):
            network.send(
                feeder.address,
                node.address,
                INR_PORT,
                UpdateBatch(
                    sender=feeder.address, updates=updates, triggered=False
                ),
                sum(u.wire_size() for u in updates) + 28,
            )
    start = sim.now
    # Periodic protocol timers reschedule forever; bound the run well
    # past any plausible processing makespan instead of draining.
    sim.run(until=start + 600.0)
    makespans = [max(0.0, node.cpu.free_at - start) for node in nodes]
    return max(makespans) * 1000.0


#: The table's columns; every one but the first is a metric per point.
COLUMNS = [
    ("names", "total_names", ""),
    ("1 vspace / 1 machine", "one_vspace_one_machine_ms", ".0f"),
    ("2 vspaces / 1 machine", "two_vspaces_one_machine_ms", ".0f"),
    ("2 vspaces / 2 machines", "two_vspaces_two_machines_ms", ".0f"),
]


def run_partition_experiment(
    seed: int,
    name_counts: Sequence[int] = (500, 1000, 2000, 3000, 4000, 5000),
) -> WorkloadResult:
    """Reproduce Figure 9. Names are split evenly into two vspaces."""
    rows: List[PartitionRow] = []
    lifetime = 1e9
    for total in name_counts:
        half = total // 2
        space_a = _updates_for_vspace(half, "space-a", seed, lifetime)
        space_b = _updates_for_vspace(total - half, "space-b", seed + 1, lifetime)
        merged = [
            NameUpdate(
                name=u.name,
                announcer=u.announcer,
                endpoints=u.endpoints,
                anycast_metric=u.anycast_metric,
                route_metric=u.route_metric,
                lifetime=u.lifetime,
                vspace="space-a",
            )
            for u in space_a + space_b
        ]
        one_one = _measure_round([(("space-a",), [merged])], seed)
        two_one = _measure_round(
            [(("space-a", "space-b"), [space_a, space_b])], seed
        )
        two_two = _measure_round(
            [(("space-a",), [space_a]), (("space-b",), [space_b])], seed
        )
        rows.append(
            PartitionRow(
                total_names=total,
                one_vspace_one_machine_ms=one_one,
                two_vspaces_one_machine_ms=two_one,
                two_vspaces_two_machines_ms=two_two,
            )
        )
    return sweep_result(rows, COLUMNS)


register_workload(Workload(
    id="partition",
    description="Figure 9: update-round time, vspaces split over one or two machines",
    run=run_partition_experiment,
    suite_tables=sweep_tables(
        "Figure 9: periodic update time (ms) vs names, two equal vspaces",
        COLUMNS,
    ),
))
