"""Operator tooling: visualization and protocol tracing (the text-mode
equivalent of the paper's NetworkManagement application, Section 4)."""

from .trace import ProtocolTrace, TraceEvent, TraceOverflow
from .visualize import (
    domain_report,
    render_name_tree,
    render_overlay,
    resolver_report,
)

__all__ = [
    "ProtocolTrace",
    "TraceEvent",
    "TraceOverflow",
    "domain_report",
    "render_name_tree",
    "render_overlay",
    "resolver_report",
]
