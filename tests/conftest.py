"""Shared fixtures for the INS reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.experiments import InsDomain, UniformWorkload
from repro.message import (
    HEADER_SIZE,
    INS_VERSION,
    Binding,
    Delivery,
    Header,
)
from repro.naming import AVPair, NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree, ValueNode
from repro.obs import NO_PARENT, TRACE_CONTEXT_SIZE, Span


def fingerprint(report) -> Tuple:
    """A deterministic digest of a chaos report: every declared field,
    floats rounded to six places, mappings sorted by key, nested
    dataclasses (violations) digested the same way. Two executions
    with the same seed and parameters must fingerprint identically."""
    return tuple(_digest(getattr(report, f.name)) for f in fields(report))


def _digest(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return tuple((key, _digest(item)) for key, item in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_digest(item) for item in value)
    if is_dataclass(value):
        return fingerprint(value)
    return value


def arm_fingerprints(run):
    """The report fingerprint of every arm of a chaos workload's
    ``SpecRun``, baseline first: equal for two runs of one spec."""
    arms = (run.baseline, *run.ablations.values())
    return [fingerprint(arm.details["report"]) for arm in arms]


@pytest.fixture
def domain():
    """A fresh single-seed domain with a DSR and no INRs yet."""
    return InsDomain(seed=1)


@pytest.fixture
def tree():
    """An empty default-vspace name-tree."""
    return NameTree()


def make_record(host: str = "10.0.0.1", port: int = 9, metric: float = 0.0,
                expires_at: float = float("inf")) -> NameRecord:
    """A minimal local name-record for direct tree manipulation."""
    return NameRecord(
        announcer=AnnouncerID.generate(host),
        endpoints=[Endpoint(host=host, port=port)],
        anycast_metric=metric,
        expires_at=expires_at,
    )


def parse(text: str) -> NameSpecifier:
    return NameSpecifier.parse(text)


def child(pair: AVPair, *attributes: str) -> Optional[AVPair]:
    """The av-pair below ``pair`` down the path of ``attributes``, or None."""
    for attribute in attributes:
        pair = next((c for c in pair.children if c.attribute == attribute), None)
        if pair is None:
            return None
    return pair


def count(name: NameSpecifier) -> int:
    """Total number of av-pairs in the name."""
    return sum(1 for _ in name.walk())


def depth(name: NameSpecifier) -> int:
    """Maximum number of av-pair levels (the paper's ``d``); 0 if empty.
    Iterative: programmatic names can nest deeper than the stack."""
    deepest = 0
    stack = [(pair, 1) for pair in name._roots]
    while stack:
        pair, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((kid, level + 1) for kid in pair.children)
    return deepest


def random_query(workload: UniformWorkload, wildcard_probability: float) -> NameSpecifier:
    """A random query; leaf values become ``*`` with the given
    probability (wild-cards are leaf-only, Section 2.3.2)."""
    name = workload.random_name()
    for pair in name.walk():
        if pair.is_leaf and workload.rng.random() < wildcard_probability:
            pair.value = "*"
    return name


def walk_values(node: ValueNode) -> Iterator[ValueNode]:
    """``node`` and every value-node below it, pre-order, iteratively
    (a deep programmatic name would exhaust the stack otherwise)."""
    stack = [node]
    while stack:
        value_node = stack.pop()
        yield value_node
        for attribute_node in list(value_node.children.values())[::-1]:
            stack.extend(list(attribute_node.children.values())[::-1])


def node_counts(tree: NameTree) -> Tuple[int, int]:
    """(attribute-node count, value-node count), excluding the root."""
    values = sum(1 for _ in walk_values(tree.root)) - 1
    attributes = sum(len(node.children) for node in walk_values(tree.root))
    return attributes, values


def trace_tree_errors(spans: List[Span]) -> List[str]:
    """Well-formedness defects of one trace's span list.

    A well-formed trace has exactly one root, every non-root span's
    parent present in the trace, unique span ids, and no span ending
    before it starts. Packet duplication legitimately yields sibling
    spans with the same parent; that is not a defect.
    """
    errors: List[str] = []
    if not spans:
        return ["trace has no spans"]
    ids = [span.span_id for span in spans]
    if len(set(ids)) != len(ids):
        errors.append("duplicate span ids")
    roots = [span for span in spans if span.parent_span_id == NO_PARENT]
    if len(roots) != 1:
        errors.append(f"expected exactly one root span, found {len(roots)}")
    known = set(ids)
    for span in spans:
        if span.parent_span_id != NO_PARENT and span.parent_span_id not in known:
            errors.append(
                f"span {span.span_id} ({span.name}) has unknown parent "
                f"{span.parent_span_id}"
            )
        if span.end is not None and span.end < span.start:
            errors.append(f"span {span.span_id} ends before it starts")
    return errors


def well_formed_traces(spans: List[Span]) -> Dict[int, List[str]]:
    """trace_id -> defects, for every trace with at least one defect."""
    grouped: Dict[int, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    defects = {}
    for trace_id in sorted(grouped):
        errors = trace_tree_errors(grouped[trace_id])
        if errors:
            defects[trace_id] = errors
    return defects


@contextmanager
def stores_to(owner, field):
    """Count stores to the slot ``field`` of ``owner``'s instances:
    yields the list each store appends the instance to. A property
    wraps the slot's member descriptor meanwhile, reading and writing
    through it. (``NameTree.refresh`` stores ``NameRecord.heard``
    exactly when it compares a payload: recognising a message stores
    nothing.)"""
    stored = []
    slot = vars(owner)[field]

    def store(self, value):
        stored.append(self)
        slot.__set__(self, value)

    setattr(owner, field, property(slot.__get__, store))
    try:
        yield stored
    finally:
        setattr(owner, field, slot)


class CountingDict(dict):
    """A dict that counts probes, writes and whole-table walks."""

    def __init__(self, *args):
        super().__init__(*args)
        self.probes = 0
        self.writes = 0
        self.walks = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def forge_packet(source_text: str, destination_text: str, data: bytes = b"",
                 trace=None, delivery: Delivery = Delivery.ANYCAST) -> bytes:
    """A late-binding packet whose name sections hold exactly the given
    text — spaced out, blank or malformed, as no encoder would emit."""
    source_bytes = source_text.encode("utf-8")
    destination_bytes = destination_text.encode("utf-8")
    source_offset = HEADER_SIZE + (TRACE_CONTEXT_SIZE if trace is not None else 0)
    destination_offset = source_offset + len(source_bytes)
    header = Header(
        version=INS_VERSION,
        binding=Binding.LATE,
        delivery=delivery,
        source_offset=source_offset,
        destination_offset=destination_offset,
        data_offset=destination_offset + len(destination_bytes),
        hop_limit=7,
        cache_lifetime=3,
        trace=trace,
    )
    return header.pack() + source_bytes + destination_bytes + data


#: The paper's running example (Figures 2 and 3).
OVAL_OFFICE_CAMERA = (
    "[city = washington [building = whitehouse"
    " [wing = west [room = oval-office]]]]"
    "[service = camera [data-type = picture [format = jpg]]"
    " [resolution = 640x480]]"
    "[accessibility = public]"
)
