"""Chaos harness: scheduled fault plans, invariant checking, MTTR.

The paper argues INS survives failures because *everything* is soft
state (§2.2, §2.4): names expire, neighbors time out, DSR registrations
need heartbeats. This package turns that claim into an executable
test: generate a deterministic fault timeline from a seed
(:class:`FaultPlan`), replay it into a live domain
(:class:`ChaosController`), assert the global invariants the design
promises (:class:`InvariantChecker`), and measure how long every repair
takes (:class:`RecoveryTracker`, :func:`percentile`).

:func:`run_chaos_scenario` wires all four together. The experiments
driven through this harness (availability, DTN, delegation, the
recovery-clocks sweep) are workloads of :mod:`repro.xp.experiments`.
"""

from .invariants import InvariantChecker, Violation
from .plan import FAULT_KINDS, ChaosController, FaultEvent, FaultPlan
from .recovery import RecoveryRecord, RecoveryTracker, percentile
from .scenario import (
    ChaosReport,
    fast_chaos_config,
    fingerprint,
    run_chaos_scenario,
)

__all__ = [
    "FAULT_KINDS",
    "ChaosController",
    "ChaosReport",
    "FaultEvent",
    "FaultPlan",
    "InvariantChecker",
    "RecoveryRecord",
    "RecoveryTracker",
    "Violation",
    "fast_chaos_config",
    "fingerprint",
    "percentile",
    "run_chaos_scenario",
]
