"""Analytic models from the paper's Section 5.1.1."""

from .lookup_model import (
    ModelFit,
    fit_parameters,
    lookup_time_closed_form,
    relative_error,
)

__all__ = [
    "ModelFit",
    "fit_parameters",
    "lookup_time_closed_form",
    "relative_error",
]
