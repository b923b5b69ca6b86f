"""The workload registry and the committed default suite.

Every experiment of :mod:`.experiments` is one module that registers
its workloads when imported here. What is left is what spans
experiments: which specs write a ``BENCH_*.json`` family that folds
other specs' runs (:data:`FAMILY_WRITERS`, asked by the one writer of
the suite's files, :func:`~.report.write_tables`), and the suite
behind every committed file (:func:`default_suite`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

# Importing an experiment module registers its workloads.
from .experiments import (
    availability,
    delegation,
    dns_mobility,
    dtn,
    fig08,
    fig09,
    fig12,
    fig13,
    fig14,
    fig15,
    load_balancing,
    lookup_model,
    packet_cache,
    recovery_clocks,
    relaxation,
    soft_state,
)
from .runner import WORKLOADS, SpecRun
from .spec import ExperimentSpec, SpecError


# ----------------------------------------------------------------------
# The committed default suite
# ----------------------------------------------------------------------
#: ``BENCH_dtn.json``'s sweep: one ``dtn`` spec per disruption length,
#: the first traced.
DTN_SWEEP = ("dtn-disruption-10", "dtn-disruption-30", "dtn-disruption-60")

#: The specs that write a ``BENCH_*.json`` family or a table folding
#: other specs' runs, each with the specs whose runs it folds in. It is
#: the one rule behind every hook's ``family`` (:func:`_family`); every
#: other output is a table built from one run, which each run of its
#: workload renders.
FAMILY_WRITERS: Dict[str, Tuple[str, ...]] = {
    "availability-chaos": (),
    DTN_SWEEP[0]: DTN_SWEEP[1:],
    "delegation-matrix": ("delegation-crash",),
    "fig14-discovery": (),
    "fig15-routing": (),
}


def _family(run: SpecRun, runs: Mapping[str, SpecRun]) -> List[SpecRun]:
    """The runs the family written from ``run`` folds, ``run`` first;
    [] when ``run``'s spec writes no family."""
    folded = FAMILY_WRITERS.get(run.spec.name)
    if folded is None:
        return []
    missing = [name for name in folded if name not in runs]
    if missing:
        raise SpecError(
            f"spec {run.spec.name!r} folds {', '.join(missing)}, "
            "which the suite does not run"
        )
    return [run] + [runs[name] for name in folded]


def default_suite() -> Dict[str, ExperimentSpec]:
    """The suite behind the committed ``BENCH_matrix.json`` and every
    other file under ``benchmarks/results/``, by spec name and in run
    order, one spec per experiment, each at its full scale: the
    toggled workloads, then the toggle-less figures and ablations, then
    the runs the ``BENCH_*.json`` families fold — all deterministic
    with ``timing=False``, so each family's run IDs are matrix entries.
    New specs go at the end: an entry's place is part of the matrix."""
    specs = [
        ExperimentSpec(
            name="packet-cache-camera",
            workload="packet-cache",
            seed=0,
            params={"requests": 10},
        ),
        ExperimentSpec(name="availability-chaos", workload="availability", seed=7),
        ExperimentSpec(name="delegation-crash", workload="delegation", seed=7),
        ExperimentSpec(
            name="spawn-overload",
            workload="spawn-overload",
            seed=0,
            params={"request_rate": 900.0, "duration": 40.0},
        ),
        ExperimentSpec(name="update-overload", workload="update-overload", seed=0),
        ExperimentSpec(
            name="fig08-saturation",
            workload="saturation",
            params={
                "name_counts": tuple(range(0, 20001, 2500)),
                "measure_intervals": 2,
            },
        ),
        ExperimentSpec(
            name="fig09-partition",
            workload="partition",
            params={"name_counts": (500, 1000, 2000, 3000, 4000, 5000)},
        ),
        ExperimentSpec(
            name="fig13-tree-size",
            workload="tree-size",
            params={"name_counts": (100, 1000, 2500, 5000, 7500, 10000, 14300)},
        ),
        ExperimentSpec(name="dns-mobility", workload="dns-mobility"),
        ExperimentSpec(
            name="lookup-model-check",
            workload="lookup-model",
            params={"depths": (1, 2, 3, 4, 5), "names_per_tree": 300, "lookups": 400},
        ),
        ExperimentSpec(
            name="overlay-relaxation",
            workload="relaxation",
            params={"inr_count": 8, "rounds": 400.0},
        ),
        ExperimentSpec(
            name="recovery-clocks",
            workload="recovery-clocks",
            seed=7,
            params={"sweep": ((1.0, 3.0), (2.0, 6.0), (4.0, 12.0))},
        ),
        ExperimentSpec(
            name="update-modes", workload="update-modes", params={"services": 20}
        ),
        ExperimentSpec(
            name="refresh-interval",
            workload="refresh-interval",
            params={"refresh_intervals": (2.0, 5.0, 15.0)},
        ),
        *(
            ExperimentSpec(
                name=name,
                workload="dtn",
                seed=7,
                toggles={"obs_tracing": name == DTN_SWEEP[0]},
                params={"disruption": disruption},
                ablations=("custody",),
            )
            for name, disruption in zip(DTN_SWEEP, (10.0, 30.0, 60.0))
        ),
        ExperimentSpec(name="delegation-matrix", workload="delegation-matrix", seed=7),
        ExperimentSpec(
            name="fig14-discovery",
            workload="discovery",
            seed=0,
            params={"max_hops": 9},
        ),
        ExperimentSpec(
            name="fig15-routing",
            workload="routing",
            seed=0,
            params={"name_counts": (250, 1000, 2500, 5000), "traced_burst": 250},
        ),
        ExperimentSpec(
            name="fig12-lookup-curve",
            workload="lookup-curve",
            params={
                "name_counts": (100, 1000, 2500, 5000, 7500, 10000, 14300),
                "lookups_per_point": 1000,
            },
        ),
        # The memo's home workload at Figure-12 scale, the one
        # ``perf_smoke.py`` reports in ``BENCH_lookup.json``: the
        # baseline arm runs memoized with periodic refreshes, the
        # ``lookup_memo`` arm is the uncached control.
        ExperimentSpec(
            name="fig12-memo",
            workload="lookup",
            seed=0,
            params={"names": 5000, "lookups": 20000},
            ablations=("lookup_memo",),
        ),
    ]
    return {spec.name: spec for spec in specs}
