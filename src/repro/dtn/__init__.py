"""Disruption-tolerant resolution: custody-transfer store-and-forward.

The paper's late-binding anycast assumes the overlay usually has a
route to a matching service; under long partitions and duty-cycled
links the resolver would otherwise drop or time out. This layer gives
an INR *custody* semantics: payloads that cannot be moved are held in a
bounded, deterministically-evicted :class:`CustodyStore` and re-bound
to a route when name state returns — the intentional name, not any
address, waits out the partition.

The package sits low in the layer DAG (above ``naming``/``message``/
``obs`` only) so the resolver can embed a store; the wire form of a
custody handoff lives in :mod:`repro.message.custody`, and the chaos
scenario that measures delivery ratio versus disruption length lives
in :mod:`repro.xp.experiments.dtn`. All timing is virtual — the wall clock is
banned here, as everywhere, by the ``entropy-taint`` lint rule.
"""

from .custody import (
    PRIORITY_KNOWN_NAME,
    PRIORITY_UNKNOWN_NAME,
    CustodyCounts,
    CustodyEntry,
    CustodyStore,
)

__all__ = [
    "CustodyCounts",
    "CustodyEntry",
    "CustodyStore",
    "PRIORITY_KNOWN_NAME",
    "PRIORITY_UNKNOWN_NAME",
]
