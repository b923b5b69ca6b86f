"""Inspection tools: render name-trees, overlays and resolver state.

The paper's implementation shipped a NetworkManagement application "to
monitor and debug the system, and view the name-tree" (Section 4).
These are its text-mode equivalents: deterministic ASCII renderings
that ``python -m repro`` and the examples print.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..nametree import NameTree
from ..nametree.nodes import ValueNode

if TYPE_CHECKING:  # pragma: no cover
    from .domain import InsDomain
    from ..resolver import INR


def render_name_tree(tree: NameTree, max_depth: int = 12) -> str:
    """An ASCII drawing of the alternating attribute/value layers.

    Attribute-nodes print as ``attribute:`` and value-nodes as
    ``= value``, with record counts at value-nodes that hold any —
    the same structure as the paper's Figure 4.
    """
    lines: List[str] = [f"name-tree vspace={tree.vspace!r} records={len(tree)}"]

    def render_value(node: ValueNode, prefix: str, depth: int) -> None:
        if depth > max_depth:
            lines.append(prefix + "...")
            return
        attributes = sorted(node.children.values(), key=lambda a: a.attribute)
        for a_index, attribute_node in enumerate(attributes):
            a_last = a_index == len(attributes) - 1
            a_branch = "`-" if a_last else "|-"
            lines.append(f"{prefix}{a_branch} {attribute_node.attribute}:")
            a_prefix = prefix + ("   " if a_last else "|  ")
            values = sorted(attribute_node.children.values(),
                            key=lambda v: v.value)
            for v_index, value_node in enumerate(values):
                v_last = v_index == len(values) - 1
                v_branch = "`-" if v_last else "|-"
                count = bin(value_node.bits).count("1")
                suffix = (
                    f"  ({count} record{'s' if count != 1 else ''})"
                    if count
                    else ""
                )
                lines.append(f"{a_prefix}{v_branch} = {value_node.value}{suffix}")
                render_value(
                    value_node,
                    a_prefix + ("   " if v_last else "|  "),
                    depth + 1,
                )

    render_value(tree.root, "", 0)
    return "\n".join(lines)


def render_overlay(domain: "InsDomain") -> str:
    """The overlay spanning tree, drawn from parent pointers."""
    children: Dict[str, List[str]] = {}
    roots: List[str] = []
    live = [inr for inr in domain.inrs if not inr._terminated]
    for inr in live:
        parent = inr.neighbors.parent
        if parent is None:
            roots.append(inr.address)
        else:
            children.setdefault(parent.address, []).append(inr.address)
    lines = [f"overlay: {len(live)} INRs"]

    def render(address: str, prefix: str, branch: str) -> None:
        lines.append(f"{prefix}{branch}{address}")
        kids = sorted(children.get(address, []))
        for index, kid in enumerate(kids):
            last = index == len(kids) - 1
            render(
                kid,
                prefix + ("   " if branch.startswith("`") else "|  ")
                if branch
                else prefix,
                "`- " if last else "|- ",
            )

    for root in sorted(roots):
        render(root, "", "")
    return "\n".join(lines)


def resolver_report(inr: "INR") -> str:
    """A one-screen status report for one resolver."""
    stats = inr.stats
    lines = [
        f"INR {inr.address} ({'active' if inr.active else 'joining'})",
        f"  vspaces: {', '.join(inr.vspaces)}",
        f"  names: {inr.name_count()}",
        f"  neighbors: {', '.join(inr.neighbors.addresses) or '<none>'}",
        f"  lookups: {stats.lookups}",
        f"  update names processed: {stats.update_names_processed}",
        f"  packets: {stats.packets_delivered_locally} delivered, "
        f"{stats.packets_forwarded} forwarded, {stats.packets_dropped} dropped",
        f"  triggered updates sent: {stats.triggered_updates_sent}",
    ]
    if inr.cache is not None:
        lines.append(
            f"  cache: {len(inr.cache)} entries, {inr.cache.hits} hits, "
            f"{inr.cache.misses} misses"
        )
    return "\n".join(lines)


def domain_report(domain: "InsDomain") -> str:
    """Status of every resolver plus the DSR's view of the domain."""
    sections = [
        f"domain at t={domain.now:.3f}s: "
        f"{len(domain.dsr.active_inrs)} active INRs, "
        f"{len(domain.dsr.candidates)} candidates",
        render_overlay(domain),
    ]
    for inr in domain.inrs:
        if not inr._terminated:
            sections.append(resolver_report(inr))
    return "\n\n".join(sections)
