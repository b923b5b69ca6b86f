"""Section 5.1.1: the T(d) lookup-time model vs measured lookups.

The paper derives, for name-specifiers grown uniformly with ``n_a``
attributes per level and ``d`` av-pair levels,

    T(d) = n_a (t_a + t_v + T(d-1)),   T(0) = b

which solves to

    T(d) = t * n_a (n_a^d - 1) / (n_a - 1) + n_a^d * b
         = Theta(n_a^d (t + b))

with ``t`` the time to find an attribute and value (constant for the
hash-table implementation, proportional to ``r_a + r_v`` for linear
search) and ``b`` the base-case set-intersection cost.

This experiment measures lookup time as d grows, fits ``t`` and ``b``
to the measurements (the closed form is linear in both, so the fit is
ordinary least squares) and reports how well the model tracks them.
The recurrence itself is kept beside its test, which checks the closed
form against it. The ``lookup-model`` workload: every number is wall
clock, so it runs only when timed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ...experiments.workload import UniformWorkload
from ...nametree import AnnouncerID, NameRecord, NameTree
from ..runner import SpecRun, Table, Workload, WorkloadResult, register_workload
from . import render


def lookup_time_closed_form(d: int, n_a: int, t: float, b: float) -> float:
    """Evaluate the closed form of T(d)."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    if n_a == 1:
        return d * t + b
    power = float(n_a) ** d
    return t * n_a * (power - 1) / (n_a - 1) + power * b


@dataclass
class ModelFit:
    """Least-squares estimates of the model parameters."""

    t: float
    b: float
    residual: float


def fit_parameters(
    observations: Sequence[Tuple[int, int, float]],
) -> ModelFit:
    """Fit (t, b) from measured lookup times.

    ``observations`` is a sequence of (d, n_a, measured_seconds). The
    closed form is linear in t and b:

        T = [n_a (n_a^d - 1)/(n_a - 1)] * t + [n_a^d] * b

    so this is a two-column least-squares problem, solved through its
    2x2 normal equations.
    """
    if len(observations) < 2:
        raise ValueError("need at least two observations to fit two parameters")
    rows = []
    times = []
    for d, n_a, measured in observations:
        if n_a == 1:
            t_coefficient = float(d)
            b_coefficient = 1.0
        else:
            power = float(n_a) ** d
            t_coefficient = n_a * (power - 1) / (n_a - 1)
            b_coefficient = power
        rows.append((t_coefficient, b_coefficient))
        times.append(measured)
    t_column, b_column = zip(*rows)

    def dot(u: Sequence[float], v: Sequence[float]) -> float:
        return sum(x * y for x, y in zip(u, v))

    tt, tb, bb = dot(t_column, t_column), dot(t_column, b_column), dot(b_column, b_column)
    ty, by = dot(t_column, times), dot(b_column, times)
    determinant = tt * bb - tb * tb
    if determinant == 0:
        raise ValueError("the observations do not determine both t and b")
    t = (bb * ty - tb * by) / determinant
    b = (tt * by - tb * ty) / determinant
    residual = sum(
        (t_coefficient * t + b_coefficient * b - measured) ** 2
        for t_coefficient, b_coefficient, measured in zip(t_column, b_column, times)
    )
    return ModelFit(t=t, b=b, residual=residual)


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
