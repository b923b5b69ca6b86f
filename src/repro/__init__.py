"""Reproduction of the Intentional Naming System (INS), SOSP '99.

"The design and implementation of an intentional naming system",
W. Adjie-Winoto, E. Schwartz, H. Balakrishnan and J. Lilley, MIT LCS.

Layering (bottom up):

- :mod:`repro.netsim`   — discrete-event network substrate.
- :mod:`repro.naming`   — the intentional name language (Section 2.1).
- :mod:`repro.nametree` — name-trees, LOOKUP-NAME, GET-NAME (Section 2.3).
- :mod:`repro.message`  — the INS packet format (Figure 10).
- :mod:`repro.resolver` — INRs: discovery, late binding, load balancing.
- :mod:`repro.overlay`  — DSR and overlay self-configuration (Section 2.4).
- :mod:`repro.client`   — the application API (Section 3).
- :mod:`repro.apps`     — Floorplan, Camera and Printer (Section 3).
- :mod:`repro.experiments` — the domain harness and name workloads (Section 5).
- :mod:`repro.xp`       — the evaluation: one workload per experiment (Section 5).
- :mod:`repro.analysis` — the lookup cost model (Section 5.1.1).

The most common entry points are re-exported here.
"""

from .client import InsClient, MobilityManager, Reply, Service
from .message import Binding, Delivery, InsMessage
from .naming import AVPair, NameSpecifier
from .nametree import AnnouncerID, Endpoint, NameRecord, NameTree, Route
from .netsim import Network, Simulator
from .overlay import DomainSpaceResolver
from .resolver import INR, CostModel, InrConfig

__version__ = "1.0.0"

__all__ = [
    "AVPair",
    "AnnouncerID",
    "Binding",
    "CostModel",
    "Delivery",
    "DomainSpaceResolver",
    "Endpoint",
    "INR",
    "InrConfig",
    "InsClient",
    "InsMessage",
    "MobilityManager",
    "NameRecord",
    "NameSpecifier",
    "NameTree",
    "Network",
    "Reply",
    "Route",
    "Service",
    "Simulator",
    "__version__",
]
