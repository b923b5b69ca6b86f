"""Shared fixtures for the INS reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.experiments import InsDomain
from repro.message import (
    HEADER_SIZE,
    INS_VERSION,
    Binding,
    Delivery,
    Header,
)
from repro.naming import NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree
from repro.obs import TRACE_CONTEXT_SIZE


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
