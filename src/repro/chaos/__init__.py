"""Chaos harness: scheduled fault plans, invariant checking, MTTR.

The paper argues INS survives failures because *everything* is soft
state (§2.2, §2.4): names expire, neighbors time out, DSR registrations
need heartbeats. This package turns that claim into an executable
test: generate a deterministic fault timeline from a seed
(:class:`FaultPlan`), replay it into a live domain
(:class:`ChaosController`), assert the global invariants the design
promises (:class:`InvariantChecker`), and measure how long every repair
takes (:class:`RecoveryTracker`, :func:`percentile`).

:func:`run_chaos_scenario` wires all four together;
:func:`run_recovery_ablation` sweeps the soft-state clocks against
recovery time and control bandwidth.
"""

from .availability import (
    AvailabilityReport,
    run_availability_scenario,
    write_bench_availability_json,
)
from .delegation import (
    CRASH_PHASES,
    CRASH_ROLES,
    DelegationReport,
    delegation_chaos_config,
    run_delegation_matrix,
    run_delegation_scenario,
    write_bench_delegation_json,
)
from .dtn import (
    DtnReport,
    dtn_chaos_config,
    run_dtn_scenario,
    write_bench_dtn_json,
)
from .invariants import InvariantChecker, Violation
from .plan import FAULT_KINDS, ChaosController, FaultEvent, FaultPlan
from .recovery import RecoveryRecord, RecoveryTracker, percentile
from .scenario import (
    ChaosReport,
    RecoveryAblationRow,
    fast_chaos_config,
    fingerprint,
    run_chaos_scenario,
    run_recovery_ablation,
)

__all__ = [
    "CRASH_PHASES",
    "CRASH_ROLES",
    "FAULT_KINDS",
    "AvailabilityReport",
    "ChaosController",
    "ChaosReport",
    "DelegationReport",
    "DtnReport",
    "FaultEvent",
    "FaultPlan",
    "InvariantChecker",
    "RecoveryAblationRow",
    "RecoveryRecord",
    "RecoveryTracker",
    "Violation",
    "delegation_chaos_config",
    "dtn_chaos_config",
    "fast_chaos_config",
    "fingerprint",
    "percentile",
    "run_availability_scenario",
    "run_chaos_scenario",
    "run_delegation_matrix",
    "run_delegation_scenario",
    "run_dtn_scenario",
    "run_recovery_ablation",
    "write_bench_availability_json",
    "write_bench_dtn_json",
    "write_bench_delegation_json",
]
