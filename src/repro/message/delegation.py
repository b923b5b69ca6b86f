"""DELEGATE-*: the two-phase vspace handoff wire protocol.

Wire definitions for crash-safe virtual-space delegation (PROTOCOL.md
§11). The paper's §2.5 cure for update overload — handing a virtual
space to a freshly spawned INR — becomes a two-phase handoff here:
OFFER → ACCEPT → TRANSFER* → COMMIT, with ABORT on timeout or crash.
Like the DSR messages, these are wire-layer types: the resolver speaks
them and the chaos harness inspects them, so they live in ``message``
below both.

Every message carries a **handoff id**: a 32-bit fence composed of the
donor's restart incarnation (high 16 bits) and a per-incarnation
sequence number (low 16 bits). Ids are strictly monotonic per donor
*across crashes*, which is what makes the fencing sound: a recipient
remembers the outcome of every settled handoff id and the next id it
will accept, so a stale retransmission — a duplicate OFFER after an
abort, a delayed TRANSFER after a commit — can never resurrect a
completed or aborted handoff (it is answered with the settled outcome,
or dropped and counted).

Like the other control dataclasses, these messages travel as objects:
no node encodes or decodes a handoff. What the simulated network
charges for one is its size under the byte layout below, computed in
closed form by ``wire_size()``, which refuses a frame the layout cannot
hold with :class:`DelegationWireError`, a :class:`ValueError`. Name
specifiers are sized in the compact binary form (``naming.binary``,
footnote 2). Each frame is a fixed header (magic, kind, version,
reserved byte, u32 handoff id; charged as ``BASE_OVERHEAD``) and a body::

    OFFER     str sender, str vspace, u32 total_records
    ACCEPT    str sender, i32 ack_seq
    TRANSFER  str sender, str vspace, u32 seq, u8 final, u16 count, record*
    COMMIT    str sender, str vspace
    ABORT     str sender, str vspace, str reason

    record    u32 length, binary name, str announcer host, f64 startup,
              u8 count, { str host, u16 port, str transport }*,
              f64 anycast metric, f64 route metric, f64 lifetime
    str       u16 length, utf-8 bytes
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..naming import NameSpecifier
from ..naming.binary import encode_name

#: Framing overhead accounted by ``wire_size`` for the fixed header.
BASE_OVERHEAD = 28

#: Hard cap on records per TRANSFER frame.
MAX_RECORDS_PER_TRANSFER = 4096
_MAX_ENDPOINTS = 255

#: ACCEPT's ``ack_seq`` when it acknowledges the OFFER itself (no
#: TRANSFER chunk has been received yet).
OFFER_ACCEPTED = -1


class DelegationWireError(ValueError):
    """A delegation frame is malformed or inconsistent."""


def compose_handoff_id(incarnation: int, sequence: int) -> int:
    """Build the 32-bit fence: restart incarnation << 16 | sequence.

    Monotonic per donor even across crashes — a restarted donor's first
    handoff id is strictly greater than anything its previous
    incarnation ever issued, so a recipient's fence never confuses the
    two.
    """
    if not 0 <= incarnation <= 0xFFFF:
        raise DelegationWireError(f"incarnation out of range: {incarnation}")
    if not 0 <= sequence <= 0xFFFF:
        raise DelegationWireError(f"sequence out of range: {sequence}")
    return (incarnation << 16) | sequence


def _str_size(text: str) -> int:
    """Wire bytes of a length-prefixed string."""
    size = len(text.encode("utf-8"))
    if size > 0xFFFF:
        raise DelegationWireError(f"string too long for frame: {size}")
    return 2 + size


# ----------------------------------------------------------------------
# The transferred record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DelegateRecord:
    """One name-record inside a TRANSFER frame.

    Carries everything the recipient needs to install the name in its
    staging tree: the compact-encoded specifier, the announcer
    identity, the early-binding endpoints, both metrics, and the
    *remaining* soft-state lifetime (seconds) — the handoff must not
    grant a record more life than the donor would have.
    """

    name: NameSpecifier
    announcer_host: str
    announcer_startup: float
    endpoints: Tuple[Tuple[str, int, str], ...]  # (host, port, transport)
    anycast_metric: float
    route_metric: float
    lifetime: float

    def wire_size(self) -> int:
        """Bytes this record adds to a TRANSFER body."""
        if len(self.endpoints) > _MAX_ENDPOINTS:
            raise DelegationWireError(
                f"too many endpoints: {len(self.endpoints)}"
            )
        return (
            4 + len(encode_name(self.name)) + _str_size(self.announcer_host) + 8
            + 1 + sum(_str_size(host) + 2 + _str_size(transport)
                      for host, _port, transport in self.endpoints)
            + 3 * 8
        )


# ----------------------------------------------------------------------
# The five handoff messages
# ----------------------------------------------------------------------
class _DelegationMessage:
    """Shared surface: the ``wire_size`` hook the simulated network uses
    to charge transmission time, the fixed header plus ``_body_size()``."""

    def wire_size(self) -> int:
        if not 0 <= self.handoff_id <= 0xFFFFFFFF:
            raise DelegationWireError(
                f"handoff id out of range: {self.handoff_id}"
            )
        return BASE_OVERHEAD + self._body_size()


@dataclass(frozen=True)
class DelegateOffer(_DelegationMessage):
    """Donor → recipient: propose taking over ``vspace``.

    ``total_records`` sizes the transfer up front so the recipient can
    refuse an offer it cannot hold before any state moves.
    """

    sender: str
    handoff_id: int
    vspace: str
    total_records: int

    def _body_size(self) -> int:
        return _str_size(self.sender) + _str_size(self.vspace) + 4


@dataclass(frozen=True)
class DelegateAccept(_DelegationMessage):
    """Recipient → donor: accept the offer, or acknowledge a chunk.

    ``ack_seq`` is :data:`OFFER_ACCEPTED` (-1) when accepting the OFFER
    itself, else the sequence number of the highest TRANSFER chunk
    applied — the donor's stop-and-wait transfer advances on it.
    """

    sender: str
    handoff_id: int
    ack_seq: int = OFFER_ACCEPTED

    def _body_size(self) -> int:
        return _str_size(self.sender) + 4


@dataclass(frozen=True)
class DelegateTransfer(_DelegationMessage):
    """Donor → recipient: one stop-and-wait chunk of name-records.

    ``seq`` starts at 0 and increments per chunk; ``final`` marks the
    last chunk, after which the recipient adopts the vspace and sends
    COMMIT. A chunk whose ``seq`` was already applied is re-acked and
    otherwise ignored (duplicate), and one beyond the expected sequence
    is dropped — the donor never sends chunk n+1 before n is acked.
    """

    sender: str
    handoff_id: int
    vspace: str
    seq: int
    final: bool
    records: Tuple[DelegateRecord, ...]

    def _body_size(self) -> int:
        if len(self.records) > MAX_RECORDS_PER_TRANSFER:
            raise DelegationWireError(
                f"too many records in one transfer: {len(self.records)}"
            )
        return (
            _str_size(self.sender) + _str_size(self.vspace) + 4 + 1 + 2
            + sum(record.wire_size() for record in self.records)
        )


@dataclass(frozen=True)
class DelegateCommit(_DelegationMessage):
    """Recipient → donor: the vspace is adopted; donor may let go.

    Also sent donor → recipient as the commit echo that stops the
    recipient's COMMIT retransmission — the direction is disambiguated
    by which side holds state for the handoff id. ``vspace`` rides
    along so a donor that crashed after finalizing (and so remembers
    nothing about the id) can still answer a retransmitted COMMIT
    idempotently: not routing the vspace ⇒ echo, routing it ⇒ abort.
    """

    sender: str
    handoff_id: int
    vspace: str

    def _body_size(self) -> int:
        return _str_size(self.sender) + _str_size(self.vspace)


@dataclass(frozen=True)
class DelegateAbort(_DelegationMessage):
    """Either direction: the handoff is dead; roll back to the donor.

    An ABORT for a handoff the recipient already committed triggers
    rollback (un-adopt): the donor only ever sends ABORT for an id it
    never finalized, so donor authority is always safe to restore —
    this is how the donor-crashed-before-COMMIT race converges to
    exactly one authoritative resolver.
    """

    sender: str
    handoff_id: int
    vspace: str
    reason: str

    def _body_size(self) -> int:
        return (_str_size(self.sender) + _str_size(self.vspace)
                + _str_size(self.reason))


__all__ = [
    "DelegateAbort",
    "DelegateAccept",
    "DelegateCommit",
    "DelegateOffer",
    "DelegateRecord",
    "DelegateTransfer",
    "DelegationWireError",
    "MAX_RECORDS_PER_TRANSFER",
    "OFFER_ACCEPTED",
    "compose_handoff_id",
]
