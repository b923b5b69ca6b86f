"""``repro.xp`` — the unified experiment engine.

Every benchmark and ablation in this repository is *data*: an
:class:`~.spec.ExperimentSpec` names a registered workload, a seed, a
set of named component toggles (the baseline configuration) and the
workload's scale parameters. The :mod:`~.runner` executes the baseline
plus one ablated run per toggle the workload honors, ingesting
:mod:`repro.obs` metrics uniformly; :mod:`~.report` folds a suite of
such runs into one ``BENCH_matrix.json`` with baseline-vs-ablated
deltas and a per-component importance ranking, and each workload's
``suite_tables`` hook renders the tables and ``BENCH_*.json`` files
under ``benchmarks/results/``.

The committed files have one contract, checked twice: CI regenerates
every deterministic file byte-identical, and tier-1
(``tests/xp/test_committed_artifacts.py``) asserts each family's claims
on the committed files. :mod:`~.gate` compares a fresh wall-clock
payload against a baseline under per-metric tolerances, for
``benchmarks/perf_smoke.py`` and the whole-domain benchmark.

Layering: spec/report/gate code is pure (reports must be
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
    "MetricRule",
    "GateReport",
    "compare_artifacts",
    "render_gate_report",
]
