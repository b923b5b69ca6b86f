"""The matrix runner: baseline × ablated execution of one spec.

A :class:`Workload` is one experiment of :mod:`.experiments`: its
driver takes the spec's seed, its toggles by their registry names and
its params as keyword arguments, runs the experiment and returns a
:class:`WorkloadResult` whose ``metrics`` are **deterministic**
(simulated time, counters, ratios — anything that is a pure function
of the spec) and whose ``timings`` are host-dependent measurements
(wall clock, interpreter object sizes; kept only when asked, and out
of the deterministic report body). Each experiment module registers
its workloads in :data:`WORKLOADS` when :mod:`.workloads` imports it.

:func:`run_spec` executes the baseline configuration plus one run per
toggle the workload honors with that toggle flipped — the full ablation
matrix for the spec. Determinism contract: two calls with the same
spec and ``timing=False`` produce equal results, which is what the
byte-identical ``BENCH_matrix.json`` test pins.

The drivers of :mod:`.experiments` may read host time, for ``timings``
only. No module has a lint exception: the ``entropy-taint`` rule
applies everywhere, and allows ``time.perf_counter`` because it never
feeds simulated behaviour.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .spec import TOGGLES, ExperimentSpec, SpecError

#: A rendered result table: (title, headers, rows). The runner writes
#: these under their historical ``benchmarks/results/*.txt`` names.
Table = Tuple[str, Sequence[str], List[Sequence[str]]]

#: A named file: (file name, content). A dict is written as canonical
#: JSON, a str (span JSONL, a Chrome trace) as it is.
File = Tuple[str, Union[dict, str]]

#: What a workload's ``suite_tables`` hook returns a list of.
Output = Union[Table, File]


@dataclass
class WorkloadResult:
    """What one configuration of one workload measured.

    ``metrics`` must be a deterministic function of (params, toggles,
    seed); ``timings`` holds what depends on the host instead — the
    wall clock, ``sys.getsizeof`` bytes — and is only populated when
    the run was invoked with ``timing=True``. ``details`` carries
    workload-native result objects (dataclasses, row lists) for
    ``suite_tables`` and the tests; it never enters the matrix report.
    ``collector`` is the :class:`repro.obs.ObsCollector` of an observed
    run, if any.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    collector: Optional[object] = None


@dataclass(frozen=True)
class Workload:
    """One engine-runnable experiment family."""

    id: str
    description: str
    #: the driver: ``run(seed=..., **toggles, **params)`` returns a
    #: :class:`WorkloadResult`; each toggle is a keyword named as in
    #: :data:`~.spec.TOGGLES`, and its keyword defaults are the
    #: workload's params when a spec does not say
    run: Callable[..., WorkloadResult]
    #: the component toggles this workload responds to (ablation axes);
    #: none for a figure that is one run
    toggles: Tuple[str, ...] = ()
    #: toggle -> (metric name, direction). The metric a toggle's
    #: importance is judged on; direction is "higher" or "lower"
    #: (which way is better). Metrics named here must be deterministic.
    primary_metrics: Mapping[str, Tuple[str, str]] = field(default_factory=dict)
    #: optional ``f(spec_run, family) -> [Table or File]``, the one
    #: output hook: this workload's result tables (``figure_*.txt``,
    #: ``ablation__*.txt``) and named files (a ``BENCH_*.json`` family,
    #: its span JSONL). ``family`` is the runs the spec's ``BENCH_*``
    #: family folds, ``spec_run`` first, or [] when the spec writes
    #: none. Outputs built from host-dependent numbers must be [] when
    #: ``spec_run.timing`` is False.
    suite_tables: Optional[
        Callable[["SpecRun", List["SpecRun"]], List[Output]]
    ] = None
    #: every number is host-dependent (``timings``): an untimed run
    #: does not call the driver and writes none of its outputs
    timed: bool = False

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
    taken = set(inspect.signature(workload.run).parameters)
    misspelt = sorted(set(spec.params) - (taken - {"seed", *workload.toggles}))
    if misspelt:
        raise SpecError(
            f"spec {spec.name!r}: workload {workload.id!r} takes no param "
            f"{', '.join(misspelt)}"
        )

    def execute(toggles: Mapping[str, bool]) -> WorkloadResult:
        """One arm: the driver under ``toggles``, its timings kept only
        when the run asked for them."""
        if workload.timed and not timing:
            return WorkloadResult()
        result = workload.run(seed=spec.seed, **toggles, **spec.params)
        if not timing:
            result.timings.clear()
        return result

    # Every toggle the workload honors is on, unless the spec pins it.
    base = {toggle: spec.toggles.get(toggle, True) for toggle in workload.toggles}
    baseline = execute(base)
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
        ablations[toggle] = execute(flipped)
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
