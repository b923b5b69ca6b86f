"""Intentional Name Resolvers and their protocols (Section 2)."""

from .cache import CacheEntry, PacketCache
from .config import InrConfig
from .costs import DEFAULT_COSTS, CostModel
from .delegation import DelegationCoordinator, DonorHandoff, RecipientHandoff
from .inr import INR
from .loadbalance import LoadMonitor, LoadSample
from .neighbors import Neighbor, NeighborTable
from .ports import DSR_PORT, EPHEMERAL_BASE, INR_PORT, PortAllocator
from .protocol import (
    Advertisement,
    DataPacket,
    DiscoveryRequest,
    DiscoveryResponse,
    NameUpdate,
    PeerAccept,
    PeerGoodbye,
    PeerRequest,
    PingRequest,
    PingResponse,
    ResolutionRequest,
    ResolutionResponse,
    UpdateBatch,
)
from .stats import InrStats

__all__ = [
    "Advertisement",
    "CacheEntry",
    "CostModel",
    "DEFAULT_COSTS",
    "DSR_PORT",
    "DataPacket",
    "DiscoveryRequest",
    "DiscoveryResponse",
    "EPHEMERAL_BASE",
    "INR",
    "INR_PORT",
    "InrConfig",
    "InrStats",
    "DelegationCoordinator",
    "DonorHandoff",
    "LoadMonitor",
    "LoadSample",
    "NameUpdate",
    "Neighbor",
    "NeighborTable",
    "PacketCache",
    "PeerAccept",
    "PeerGoodbye",
    "PeerRequest",
    "PingRequest",
    "PingResponse",
    "PortAllocator",
    "RecipientHandoff",
    "ResolutionRequest",
    "ResolutionResponse",
    "UpdateBatch",
]
