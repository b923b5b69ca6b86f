"""The Section 5.1.1 analytic model of LOOKUP-NAME's running time.

The paper derives, for name-specifiers grown uniformly with ``n_a``
attributes per level and ``d`` av-pair levels,

    T(d) = n_a (t_a + t_v + T(d-1)),   T(0) = b

which solves to

    T(d) = t * n_a (n_a^d - 1) / (n_a - 1) + n_a^d * b
         = Theta(n_a^d (t + b))

with ``t`` the time to find an attribute and value (constant for the
hash-table implementation, proportional to ``r_a + r_v`` for linear
search) and ``b`` the base-case set-intersection cost.

This module evaluates the recurrence and closed form, and fits ``t``
and ``b`` from measured lookup times: the closed form is linear in both
parameters, so the fit is ordinary least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


def lookup_time_recurrence(d: int, n_a: int, t: float, b: float) -> float:
    """Evaluate T(d) by direct recursion (the paper's recurrence)."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    if d == 0:
        return b
    return n_a * (t + lookup_time_recurrence(d - 1, n_a, t, b))


def lookup_time_closed_form(d: int, n_a: int, t: float, b: float) -> float:
    """Evaluate the closed form of T(d)."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    if n_a == 1:
        return d * t + b
    power = float(n_a) ** d
    return t * n_a * (power - 1) / (n_a - 1) + power * b


def linear_search_time(
    d: int, n_a: int, r_a: int, r_v: int, per_comparison: float, b: float
) -> float:
    """T(d) when attributes/values are found by linear scan:
    t proportional to r_a + r_v (the strawman of Section 5.1.1)."""
    return lookup_time_closed_form(d, n_a, per_comparison * (r_a + r_v), b)


@dataclass
class ModelFit:
    """Least-squares estimates of the model parameters."""

    t: float
    b: float
    residual: float

    def predict(self, d: int, n_a: int) -> float:
        return lookup_time_closed_form(d, n_a, self.t, self.b)


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


def relative_error(predicted: float, measured: float) -> float:
    """|predicted - measured| / measured (guarding zero)."""
    if measured == 0:
        return float("inf") if predicted else 0.0
    return abs(predicted - measured) / abs(measured)
