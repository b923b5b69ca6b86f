"""The Figure 6 oracle: GET-NAME transcribed from the paper, always from
the tree. ``NameTree.get_name`` answers with the name-specifier it
grafted; the tests check it against this trace, sibling order included.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.naming import AVPair, NameSpecifier
from repro.nametree import NameRecord, NameTree, ValueNode


def oracle_get_name(tree: NameTree, record: NameRecord) -> NameSpecifier:
    """GET-NAME(T, r), as Figure 6 states it.

    Traces upward from each of the record's leaf value-nodes, grafting
    reconstructed fragments onto av-pairs already rebuilt. PTR, the
    paper's transient variable on each value-node, is a dict keyed by
    node that lives for this one call.
    """
    name = NameSpecifier()
    ptr: Dict[ValueNode, Union[NameSpecifier, AVPair]] = {tree.root: name}
    for value_node in record.attachments:
        fragment = None
        # Iterative upward walk: the chain is as long as the name is
        # deep, and deep names must rebuild without recursion.
        while value_node not in ptr:
            pair = AVPair(value_node.parent.attribute, value_node.value)
            ptr[value_node] = pair
            if fragment is not None:
                pair.add_child(fragment)
            fragment = pair
            value_node = value_node.parent.parent
        # Something to graft onto: attach the fragment.
        if fragment is not None:
            if value_node.is_root:
                name.add_pair(fragment)
            else:
                ptr[value_node].add_child(fragment)
    return name
