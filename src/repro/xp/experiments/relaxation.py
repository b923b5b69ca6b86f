"""Section 2.4: what overlay relaxation buys when conditions change.

The join algorithm picks each node's cheapest edge to an earlier node,
so at join time the spanning tree is greedily optimal. This experiment
then degrades every tree edge and lets relaxation re-measure parents
and swap to cheaper edges. The ``relaxation`` workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ...experiments.domain import InsDomain
from ...resolver import InrConfig
from ..runner import SpecRun, Table, Workload, WorkloadResult, register_workload
from . import render, report_metrics


@dataclass
class RelaxationResult:
    initial_tree_cost: float
    relaxed_tree_cost: float
    optimal_like_cost: float


#: The table's columns, each a metric.
COLUMNS = (
    ("after degradation", "initial_tree_cost", ".4f"),
    ("after relaxation", "relaxed_tree_cost", ".4f"),
    ("greedy under new latencies", "optimal_like_cost", ".4f"),
)


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
    seed: int, inr_count: int = 8, rounds: float = 400.0
) -> WorkloadResult:
    """Show what relaxation buys when network conditions change.

    We *degrade* every tree edge (as wireless conditions shifting
    would), leaving better alternatives unused. Without relaxation the
    overlay is stuck with the degraded edges; with it, INRs re-measure
    their parents, probe earlier-ordered alternatives and swap to
    cheaper edges.

    Reports the tree cost right after degradation, after relaxation
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
    result = RelaxationResult(
        initial_tree_cost=degraded,
        relaxed_tree_cost=relaxed,
        optimal_like_cost=greedy,
    )
    return WorkloadResult(
        metrics=report_metrics(result, [attr for _, attr, _ in COLUMNS]),
        details={"result": result},
    )


def _relaxation_tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
    return [render(
        "Ablation: overlay tree cost (sum of parent-edge latencies, s)",
        COLUMNS,
        [run.baseline.details["result"]],
    )]


register_workload(Workload(
    id="relaxation",
    description="Section 2.4: overlay relaxation repairing a degraded tree",
    run=run_relaxation_experiment,
    suite_tables=_relaxation_tables,
))
