"""The experiment harness: domain wiring (:class:`InsDomain`), uniform
random name workloads (Section 5.1) and time-series sampling. The
figures and ablations built on it are the workloads of
:mod:`repro.xp.experiments`."""

from .domain import DSR_HOST, InsDomain
from .metrics import DomainSampler, ResolverSample
from .workload import UniformWorkload

__all__ = [
    "DSR_HOST",
    "DomainSampler",
    "InsDomain",
    "ResolverSample",
    "UniformWorkload",
]
