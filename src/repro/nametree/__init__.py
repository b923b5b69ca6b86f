"""Name-trees, name-records and the lookup/extraction algorithms
(Section 2.3 of the paper).

Public surface:

- :class:`NameTree` — per-vspace store with LOOKUP-NAME and GET-NAME.
- :class:`NameRecord`, :class:`Route`, :class:`Endpoint`,
  :class:`AnnouncerID` — the resolver-side state for announced names.
- :func:`name_tree_bytes` — deep memory accounting (Figure 13).
"""

from .nodes import AttributeNode, ValueNode
from .record import (
    DEFAULT_LIFETIME,
    LOCAL_ROUTE,
    AnnouncerID,
    Endpoint,
    NameRecord,
    Route,
)
from .sizing import name_tree_bytes
from .tree import InsertOutcome, NameTree

__all__ = [
    "AnnouncerID",
    "AttributeNode",
    "DEFAULT_LIFETIME",
    "Endpoint",
    "InsertOutcome",
    "LOCAL_ROUTE",
    "NameRecord",
    "NameTree",
    "Route",
    "ValueNode",
    "name_tree_bytes",
]
