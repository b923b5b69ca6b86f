"""Discrete-event network substrate.

Stands in for the paper's testbed: nodes with serial CPUs, point-to-
point links with latency/bandwidth/loss, UDP-like datagram delivery,
and a deterministic event loop with virtual time.
"""

from .cpu import Cpu
from .network import Link, LinkStats, Network, Node
from .process import PeriodicTimer, Process
from .simulator import ARGS, CALLBACK, SEQUENCE, TIME, Simulator, cancel

__all__ = [
    "ARGS",
    "CALLBACK",
    "Cpu",
    "Link",
    "LinkStats",
    "Network",
    "Node",
    "PeriodicTimer",
    "Process",
    "SEQUENCE",
    "Simulator",
    "TIME",
    "cancel",
]
