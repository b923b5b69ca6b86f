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
    bench_availability_payload,
    run_availability_scenario,
)
from .delegation import (
    CRASH_PHASES,
    CRASH_ROLES,
    DelegationReport,
    bench_delegation_payload,
    delegation_chaos_config,
    run_delegation_matrix,
    run_delegation_scenario,
)
from .dtn import (
    DtnReport,
    bench_dtn_payload,
    dtn_chaos_config,
    run_dtn_scenario,
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
    "bench_availability_payload",
    "bench_delegation_payload",
    "bench_dtn_payload",
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
]
