"""Section 5.1.1: the T(d) lookup-time model vs measured lookups.

The paper models LOOKUP-NAME's time as a recursion over the av-pair
levels d, exponential with base n_a. This experiment measures lookup
time as d grows, fits the model's two constants to the measurements
and reports how well it tracks them. The ``lookup-model`` workload:
every number is wall clock, so it runs only when timed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Sequence

from ...analysis import fit_parameters, lookup_time_closed_form
from ...experiments.workload import UniformWorkload
from ...nametree import AnnouncerID, NameRecord, NameTree
from ..runner import SpecRun, Table, Workload, WorkloadResult, register_workload
from . import render


@dataclass
class ModelCheckRow:
    depth: int
    measured_us: float
    predicted_us: float


def run_lookup_model_check(
    seed: int,
    depths: Sequence[int] = (1, 2, 3, 4),
    names_per_tree: int = 400,
    lookups: int = 300,
    attribute_range: int = 3,
    value_range: int = 3,
    attributes_per_level: int = 2,
) -> WorkloadResult:
    """Measure lookup time as d grows and fit the paper's T(d) model
    to the measurements.

    The details hold the rows and the fitted ``(t_us, b_us)``. The
    shape to verify: the model tracks the measurements (it is
    exponential in d with base n_a).
    """

    def measure(depth: int) -> float:
        rng = random.Random(seed + depth)
        workload = UniformWorkload(
            rng=rng,
            depth=depth,
            attribute_range=attribute_range,
            value_range=value_range,
            attributes_per_level=attributes_per_level,
        )
        # The queries are drawn from at most ``target`` inserted names,
        # so most of them repeat: with the memo on, the fit would be to
        # memo hits, not to the n_a^d recursion (as in fig12's curve).
        tree = NameTree(memoize=False)
        target = min(
            names_per_tree,
            # shallow namespaces cannot produce many distinct names
            (attribute_range * value_range) ** min(depth, 2),
        )
        inserted = workload.distinct_names(target)
        for i, name in enumerate(inserted):
            tree.insert(
                name, NameRecord(announcer=AnnouncerID.generate(f"mc-{i}"))
            )
        # Query names known to be present so every lookup walks the
        # full n_a^d recursion instead of bailing out at a missing
        # attribute — that is the regime the T(d) model describes.
        queries = [inserted[rng.randrange(len(inserted))] for _ in range(lookups)]
        started = time.perf_counter()
        for query in queries:
            tree.lookup(query)
        return (time.perf_counter() - started) / lookups * 1e6

    measured = {d: measure(d) for d in depths}
    fit = fit_parameters(
        [(d, attributes_per_level, measured[d] / 1e6) for d in depths]
    )
    rows = [
        ModelCheckRow(
            depth=d,
            measured_us=measured[d],
            predicted_us=lookup_time_closed_form(
                d, attributes_per_level, fit.t, fit.b
            )
            * 1e6,
        )
        for d in depths
    ]
    fitted_t_us, fitted_b_us = fit.t * 1e6, fit.b * 1e6
    timings = {"fit_t_us": fitted_t_us, "fit_b_us": fitted_b_us}
    for row in rows:
        timings[f"measured_us_{row.depth}"] = row.measured_us
        timings[f"predicted_us_{row.depth}"] = row.predicted_us
    return WorkloadResult(
        timings=timings,
        details={"rows": rows, "fit": (fitted_t_us, fitted_b_us)},
    )


def _model_tables(run: SpecRun, family: List[SpecRun]) -> List[Table]:
    fitted_t_us, fitted_b_us = run.baseline.details["fit"]
    return [render(
        "Ablation: T(d) model vs measured lookup time "
        f"(fit t={fitted_t_us:.2f}us, b={fitted_b_us:.2f}us)",
        [
            ("depth d", "depth", ""),
            ("measured (us)", "measured_us", ".1f"),
            ("model (us)", "predicted_us", ".1f"),
        ],
        run.baseline.details["rows"],
    )]


register_workload(Workload(
    id="lookup-model",
    description="Section 5.1.1: LOOKUP-NAME time vs the T(d) model (timed)",
    run=run_lookup_model_check,
    suite_tables=_model_tables,
    timed=True,
))
