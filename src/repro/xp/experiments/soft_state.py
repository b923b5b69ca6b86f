"""Soft-state tuning: the refresh interval, and footnote 3's
reliable-delta alternative to flooding.

Two workloads. ``refresh-interval`` quantifies the paper's Section 7
tuning concern: faster refreshes buy faster removal of dead names at
the price of bandwidth. ``update-modes`` compares the paper's
soft-state dissemination with the footnote-3 reliable-delta updates on
steady-state bandwidth, stale-name removal and change propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ...experiments.domain import InsDomain
from ...naming import NameSpecifier
from ...resolver import InrConfig
from ..runner import Workload, WorkloadResult, register_workload
from . import sweep_result, sweep_tables


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


#: ``refresh-interval``'s columns; every one but the first is a metric
#: per point.
SOFTSTATE_COLUMNS = [
    ("refresh interval (s)", "refresh_interval", ".0f"),
    ("control bytes/s on INR link", "control_bytes_per_second", ".0f"),
    ("stale-name removal (s)", "stale_name_removal_s", ".1f"),
]


def run_softstate_experiment(
    seed: int,
    refresh_intervals: Sequence[float] = (2.0, 5.0, 15.0),
    services: int = 10,
) -> WorkloadResult:
    """For each interval (lifetime = 3x interval, the suite-wide rule):
    measure steady-state control traffic on the inter-INR link, then
    kill one service and measure how long its name lingers at the
    *remote* resolver."""
    rows = []
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
    return sweep_result(rows, SOFTSTATE_COLUMNS)


register_workload(Workload(
    id="refresh-interval",
    description="Section 7: refresh interval vs control bandwidth and stale names",
    run=run_softstate_experiment,
    suite_tables=sweep_tables(
        "Ablation: soft-state refresh interval tradeoff "
        "(10 services, lifetime = 3x interval)",
        SOFTSTATE_COLUMNS,
    ),
))


@dataclass
class UpdateModeRow:
    mode: str
    steady_state_bytes_per_second: float
    stale_name_removal_s: float
    change_propagation_s: float


#: ``update-modes``' columns; every one but the first is a metric per
#: mode.
UPDATE_MODE_COLUMNS = [
    ("mode", "mode", ""),
    ("steady bytes/s", "steady_state_bytes_per_second", ".1f"),
    ("stale removal (s)", "stale_name_removal_s", ".1f"),
    ("change propagation (s)", "change_propagation_s", ".3f"),
]


def run_update_mode_comparison(seed: int, services: int = 20) -> WorkloadResult:
    """Both update modes on three axes: steady-state inter-INR
    bandwidth, how fast a dead service's name vanishes one hop away,
    and how fast a metric change propagates."""
    rows = []
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
    return sweep_result(rows, UPDATE_MODE_COLUMNS)


register_workload(Workload(
    id="update-modes",
    description="footnote 3: soft-state flooding vs reliable-delta inter-INR updates",
    run=run_update_mode_comparison,
    suite_tables=sweep_tables(
        "Ablation: soft-state vs reliable-delta inter-INR updates "
        "(20 services, 15 s refresh)",
        UPDATE_MODE_COLUMNS,
    ),
))
