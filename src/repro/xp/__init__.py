"""``repro.xp`` — the unified experiment engine.

Every benchmark and ablation in this repository is *data*: an
:class:`~.spec.ExperimentSpec` names a registered workload, a seed, a
set of named component toggles (the baseline configuration) and the
workload's scale parameters. The :mod:`~.runner` executes the baseline
plus one ablated run per toggle the workload honors, ingesting
:mod:`repro.obs` metrics uniformly; :mod:`~.report` folds a suite of
such runs into one schema-versioned ``BENCH_matrix.json`` with
baseline-vs-ablated deltas and a per-component importance ranking.

Around the engine sit two data contracts:

- :mod:`~.schema` — the versioned validation schema every
  ``BENCH_*.json`` artifact under ``benchmarks/results/`` must satisfy
  (a tier-1 test enforces it);
- :mod:`~.gate` — the ``repro-bench-gate`` console tool that compares a
  freshly produced artifact against a committed baseline and fails on
  regressions beyond per-metric tolerances.

Layering: spec/report/schema/gate code is pure (reports must be
byte-reproducible); only the runner side (:mod:`~.runner`,
:mod:`~.workloads`, :mod:`~.cli`) reads the host clock, and only for the
optional wall-clock ``timings`` section. The ``entropy-taint`` lint rule
applies everywhere: it bans the wall clock (``time.time``) in every
module and allows ``time.perf_counter``, host-CPU measurement that
never feeds simulated behaviour.
"""

from .gate import GateReport, MetricRule, compare_artifacts, render_gate_report
from .report import build_matrix_report, write_bench_matrix_json
from .runner import SpecRun, Workload, WorkloadResult, run_spec, run_suite
from .schema import (
    SchemaError,
    validate_artifact,
    validate_results_dir,
)
from .spec import TOGGLES, ExperimentSpec
from .workloads import WORKLOADS, default_suite

__all__ = [
    "ExperimentSpec",
    "TOGGLES",
    "WORKLOADS",
    "Workload",
    "WorkloadResult",
    "SpecRun",
    "run_spec",
    "run_suite",
    "default_suite",
    "build_matrix_report",
    "write_bench_matrix_json",
    "SchemaError",
    "validate_artifact",
    "validate_results_dir",
    "MetricRule",
    "GateReport",
    "compare_artifacts",
    "render_gate_report",
]
