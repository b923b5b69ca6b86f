"""``repro.xp`` — the unified experiment engine.

Every benchmark and ablation in this repository is *data*: an
:class:`~.spec.ExperimentSpec` names a registered workload, a seed, a
set of named component toggles (the baseline configuration) and the
workload's scale parameters. Each workload is one module of
:mod:`~.experiments` — driver, metrics, tables and ``BENCH_*.json``
payload in one place — registered by :mod:`~.workloads`, which also
holds the committed default suite. The :mod:`~.runner` executes the
baseline plus one ablated run per toggle the workload honors, passing
the spec's seed, toggles and params straight to the driver;
:mod:`~.report` folds a suite of such runs into one
``BENCH_matrix.json`` with baseline-vs-ablated deltas and a
per-component importance ranking, and writes the tables and
``BENCH_*.json`` files each workload's ``suite_tables`` hook renders
under ``benchmarks/results/``.

The committed files have one contract, checked twice: CI regenerates
every deterministic file byte-identical, and tier-1
(``tests/xp/test_committed_artifacts.py``) asserts each family's claims
on the committed files. :mod:`~.gate` compares a fresh wall-clock
payload against a baseline under per-metric tolerances, for
``benchmarks/perf_smoke.py`` and the whole-domain benchmark.

Layering: spec/report/gate code is pure (reports must be
byte-reproducible); only the experiments' drivers read the host clock,
and only for the optional wall-clock ``timings`` section. The
``entropy-taint`` lint rule applies everywhere: it bans the wall clock
(``time.time``) in every module and allows ``time.perf_counter``,
host-CPU measurement that never feeds simulated behaviour.
"""

from .gate import GateReport, MetricRule, compare_artifacts, render_gate_report
from .spec import TOGGLES, ExperimentSpec


def __getattr__(name: str):
    """The engine's names, loaded on first use. They need the registry,
    which imports every experiment module and the simulated system
    behind them, so importing the pure gate alone (``benchmarks/e2e``
    reads ``repro.xp.gate``) stays light: loaded with the package, they
    moved ``deliver-late``'s ``peak_rss_mb`` from 74.2 to 82.2 MiB at
    the benchmark's 10 s runs."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import report, runner, workloads  # workloads registers every workload

    for module in (runner, report, workloads):
        if hasattr(module, name):
            return getattr(module, name)


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
