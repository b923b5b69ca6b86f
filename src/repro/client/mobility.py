"""The mobility manager (Section 4).

In the paper's implementation a MobilityManager at the client detects
network movement and rebinds the UDP socket when the IP address changes,
transparently to applications. Here, node movement is an explicit
simulation action: :meth:`MobilityManager.migrate` gives the node its
new address (datagrams in flight to the old one are lost, like real
UDP), then tells every service on the node, so each re-announces itself
immediately from the new location.
"""

from __future__ import annotations

from ..netsim import Node
from .service import Service


class MobilityManager:
    """Moves a node between network locations."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.moves = 0

    def migrate(self, new_address: str) -> None:
        """Change the node's network address (node mobility).

        Every :class:`Service` on the node is told via
        ``on_network_change()`` and re-advertises at once, so the name
        discovery protocol replaces the stale location quickly; a plain
        client has no announcement to repair.
        """
        old_address = self.node.address
        if new_address == old_address:
            return
        self.node.network.rename_node(old_address, new_address)
        self.moves += 1
        for process in self.node.processes:
            if isinstance(process, Service):
                process.on_network_change()
