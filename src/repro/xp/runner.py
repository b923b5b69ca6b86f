"""The matrix runner: baseline × ablated execution of one spec.

A :class:`Workload` adapts one benchmark or chaos scenario to the
engine: given a spec's params, a seed and concrete toggle values, it
runs the experiment and returns a :class:`WorkloadResult` whose
``metrics`` are **deterministic** (simulated time, counters, ratios —
anything that is a pure function of the spec) and whose ``timings``
are host-dependent measurements (wall clock, interpreter object sizes;
collected only when asked, and kept out of the deterministic report
body). Workloads register themselves in :data:`WORKLOADS` at import
time; :mod:`.workloads` populates the registry with every experiment
and figure.

:func:`run_spec` executes the baseline configuration plus one run per
toggle the workload honors with that toggle flipped — the full ablation
matrix for the spec. Determinism contract: two calls with the same
spec and ``timing=False`` produce equal results, which is what the
byte-identical ``BENCH_matrix.json`` test pins.

This is the engine side (with :mod:`.workloads` and :mod:`.cli`) where
host time may be read, for ``timings`` only. No module has a lint
exception: the ``entropy-taint`` rule applies everywhere, and allows
``time.perf_counter`` because it never feeds simulated behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .spec import TOGGLES, ExperimentSpec, SpecError

#: A rendered result table: (title, headers, rows). The runner writes
#: these under their historical ``benchmarks/results/*.txt`` names.
Table = Tuple[str, Sequence[str], List[Sequence[str]]]


@dataclass
class WorkloadResult:
    """What one configuration of one workload measured.

    ``metrics`` must be a deterministic function of (params, toggles,
    seed); ``timings`` holds what depends on the host instead — the
    wall clock, ``sys.getsizeof`` bytes — and is only populated when
    the run was invoked with ``timing=True``. ``details`` carries
    workload-native result objects (dataclasses, row lists) for
    ``suite_tables``, tests and the bench scripts that write a
    ``BENCH_*.json`` family; it never enters the matrix report.
    ``collector`` is the :class:`repro.obs.ObsCollector` of an observed
    run, if any.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    collector: Optional[object] = None


#: run(params, toggles, seed, timing) -> WorkloadResult
WorkloadFn = Callable[
    [Mapping[str, object], Mapping[str, bool], int, bool], WorkloadResult
]


@dataclass(frozen=True)
class Workload:
    """One engine-runnable experiment family."""

    id: str
    description: str
    run: WorkloadFn
    #: the component toggles this workload responds to (ablation axes);
    #: none for a figure that is one run
    toggles: Tuple[str, ...] = ()
    #: toggle -> (metric name, direction). The metric a toggle's
    #: importance is judged on; direction is "higher" or "lower"
    #: (which way is better). Metrics named here must be deterministic.
    primary_metrics: Mapping[str, Tuple[str, str]] = field(default_factory=dict)
    #: optional ``f(spec_run) -> [Table]`` producing this workload's
    #: result tables (``figure_*.txt``, ``ablation__*.txt``); tables
    #: built from host-dependent numbers must return [] when
    #: ``spec_run.timing`` is False.
    suite_tables: Optional[Callable[["SpecRun"], List[Table]]] = None

    def __post_init__(self) -> None:
        for toggle in self.toggles:
            if toggle not in TOGGLES:
                raise SpecError(
                    f"workload {self.id!r} declares unknown toggle {toggle!r}"
                )
            if toggle not in self.primary_metrics:
                raise SpecError(
                    f"workload {self.id!r} has no primary metric for "
                    f"toggle {toggle!r}"
                )
        for toggle, (_, direction) in self.primary_metrics.items():
            if direction not in ("higher", "lower"):
                raise SpecError(
                    f"workload {self.id!r}, toggle {toggle!r}: direction "
                    f"must be 'higher' or 'lower', not {direction!r}"
                )


WORKLOADS: Dict[str, Workload] = {}


def register_workload(workload: Workload) -> Workload:
    if workload.id in WORKLOADS:
        raise SpecError(f"workload {workload.id!r} registered twice")
    WORKLOADS[workload.id] = workload
    return workload


def baseline_toggles(
    workload: Workload, spec: ExperimentSpec
) -> Dict[str, bool]:
    """The concrete baseline toggle values a spec runs under: every
    toggle the workload honors on, unless the spec pins it."""
    return {
        toggle: spec.toggles.get(toggle, True) for toggle in workload.toggles
    }


@dataclass
class SpecRun:
    """The executed matrix of one spec: baseline + per-toggle ablations."""

    spec: ExperimentSpec
    baseline: WorkloadResult
    #: toggle name -> result of the run with that toggle flipped
    ablations: Dict[str, WorkloadResult]
    #: concrete baseline toggle values the runs were derived from
    toggles: Dict[str, bool]
    timing: bool


def run_spec(spec: ExperimentSpec, timing: bool = False) -> SpecRun:
    """Execute one spec's full baseline × ablated matrix."""
    workload = WORKLOADS.get(spec.workload)
    if workload is None:
        raise SpecError(
            f"spec {spec.name!r} names unknown workload {spec.workload!r} "
            f"(known: {', '.join(sorted(WORKLOADS))})"
        )
    base = baseline_toggles(workload, spec)
    baseline = workload.run(spec.params, dict(base), spec.seed, timing)
    to_ablate = workload.toggles
    if spec.ablations:
        unknown = set(spec.ablations) - set(workload.toggles)
        if unknown:
            raise SpecError(
                f"spec {spec.name!r} asks to ablate "
                f"{', '.join(sorted(unknown))}, which workload "
                f"{workload.id!r} does not honor"
            )
        to_ablate = tuple(t for t in workload.toggles if t in spec.ablations)
    ablations: Dict[str, WorkloadResult] = {}
    for toggle in to_ablate:
        flipped = dict(base)
        flipped[toggle] = not flipped[toggle]
        ablations[toggle] = workload.run(
            spec.params, flipped, spec.seed, timing
        )
    return SpecRun(
        spec=spec,
        baseline=baseline,
        ablations=ablations,
        toggles=base,
        timing=timing,
    )


def run_suite(
    specs: Sequence[ExperimentSpec], timing: bool = False
) -> List[SpecRun]:
    """Execute a suite of specs in order (deterministically)."""
    seen = set()
    for spec in specs:
        run_id = spec.run_id()
        if run_id in seen:
            raise SpecError(f"suite contains duplicate spec {spec.name!r}")
        seen.add(run_id)
    return [run_spec(spec, timing=timing) for spec in specs]
