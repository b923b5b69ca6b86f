"""The recovery-time ablation: soft-state clocks vs MTTR and bandwidth.

Sweeps the soft-state clocks (refresh interval and neighbor timeout)
through the standard chaos scenario (:func:`repro.chaos.run_chaos_scenario`)
and reports MTTR percentiles against control-bandwidth cost — the
robustness analogue of the paper's bandwidth/staleness tradeoff. The
``recovery-clocks`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ...chaos import fast_chaos_config, run_chaos_scenario
from ..runner import Workload, WorkloadResult, register_workload
from . import sweep_result, sweep_tables


@dataclass
class RecoveryAblationRow:
    """One sweep point of the recovery ablation."""

    refresh_interval: float
    neighbor_timeout: float
    crash_detect_p100: float
    crash_mttr_p50: float
    crash_mttr_p100: float
    failover_mttr_p100: float
    control_bytes_per_second: float
    violations: int


#: The table's columns; every one but the first (and ``violations``)
#: is a metric per point.
COLUMNS = [
    ("refresh (s)", "refresh_interval", ".0f"),
    ("nbr timeout (s)", "neighbor_timeout", ".0f"),
    ("crash detect p100 (s)", "crash_detect_p100", ".2f"),
    ("crash MTTR p50 (s)", "crash_mttr_p50", ".2f"),
    ("crash MTTR p100 (s)", "crash_mttr_p100", ".2f"),
    ("failover MTTR (s)", "failover_mttr_p100", ".2f"),
    ("control bytes/s", "control_bytes_per_second", ".0f"),
]


def run_recovery_ablation(
    seed: int,
    sweep: Tuple[Tuple[float, float], ...] = ((1.0, 3.0), (2.0, 6.0), (4.0, 12.0)),
    n_inrs: int = 5,
    n_services: int = 3,
    chaos_duration: float = 25.0,
) -> WorkloadResult:
    """Sweep (refresh interval, neighbor timeout) against recovery time
    and bandwidth.

    The expected shape: slower soft-state clocks cut control bandwidth
    roughly proportionally but stretch every recovery path — crashed
    resolvers linger on peers until the neighbor timeout, and restarted
    ones wait a full refresh for their names to come back.
    """
    rows = []
    for refresh_interval, neighbor_timeout in sweep:
        report = run_chaos_scenario(
            seed=seed,
            n_inrs=n_inrs,
            n_services=n_services,
            chaos_duration=chaos_duration,
            config=fast_chaos_config(refresh_interval, neighbor_timeout),
        )
        crash = report.mttr.get("crash-inr", {})
        failover = report.mttr.get("dsr-failover", {})
        rows.append(
            RecoveryAblationRow(
                refresh_interval=refresh_interval,
                neighbor_timeout=neighbor_timeout,
                crash_detect_p100=crash.get("detect_p100", float("nan")),
                crash_mttr_p50=crash.get("p50", float("nan")),
                crash_mttr_p100=crash.get("p100", float("nan")),
                failover_mttr_p100=failover.get("p100", float("nan")),
                control_bytes_per_second=report.control_bytes / report.sim_time,
                violations=len(report.all_violations),
            )
        )
    return sweep_result(rows, COLUMNS, extra_metrics=("violations",))


register_workload(Workload(
    id="recovery-clocks",
    description="soft-state clocks vs crash detection, MTTR and control bandwidth",
    run=run_recovery_ablation,
    suite_tables=sweep_tables(
        "Ablation: soft-state clocks vs recovery "
        "(5 INRs, crash+restart / flaps / noisy links / DSR failover)",
        COLUMNS,
    ),
))
