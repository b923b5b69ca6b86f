"""Wire sizes of the DELEGATE-* handoff frames and the fence arithmetic.

No node encodes or decodes a handoff; the simulated network charges
each frame ``wire_size()``, the closed-form size of its byte layout
(``repro.message.delegation``). The sizes are pinned to literals, and
every field the layout cannot hold raises the controlled
:class:`DelegationWireError`.
"""

import pytest

from repro.message import (
    DelegateAbort,
    DelegateAccept,
    DelegateCommit,
    DelegateOffer,
    DelegateRecord,
    DelegateTransfer,
    DelegationWireError,
    MAX_RECORDS_PER_TRANSFER,
    OFFER_ACCEPTED,
    compose_handoff_id,
)
from repro.naming import NameSpecifier


def _record(index=0):
    return DelegateRecord(
        name=NameSpecifier.parse(
            f"[service=bulk[id=n{index}]][vspace=bulk]"
        ),
        announcer_host=f"host-{index}",
        announcer_startup=12.5 + index,
        endpoints=(("10.0.0.%d" % (index + 1), 5000 + index, "udp"),),
        anycast_metric=0.25 * index,
        route_metric=1.5,
        lifetime=30.0 - index,
    )


def _sample_messages():
    handoff = compose_handoff_id(3, 41)
    return [
        DelegateOffer(sender="inr-donor", handoff_id=handoff,
                      vspace="bulk", total_records=24),
        DelegateAccept(sender="inr-spare", handoff_id=handoff,
                       ack_seq=OFFER_ACCEPTED),
        DelegateAccept(sender="inr-spare", handoff_id=handoff, ack_seq=2),
        DelegateTransfer(sender="inr-donor", handoff_id=handoff,
                         vspace="bulk", seq=1, final=False,
                         records=tuple(_record(i) for i in range(3))),
        DelegateTransfer(sender="inr-donor", handoff_id=handoff,
                         vspace="bulk", seq=2, final=True, records=()),
        DelegateCommit(sender="inr-spare", handoff_id=handoff,
                       vspace="bulk"),
        DelegateAbort(sender="inr-donor", handoff_id=handoff,
                      vspace="bulk", reason="offer-timeout"),
    ]


# ----------------------------------------------------------------------
# Wire sizes
# ----------------------------------------------------------------------
def _multibyte_transfer():
    """Several records, each with UTF-8 hosts of two- and three-byte
    characters and several endpoints."""
    return DelegateTransfer(
        sender="inr-donor", handoff_id=compose_handoff_id(2, 9),
        vspace="bulk", seq=3, final=True,
        records=tuple(
            DelegateRecord(
                name=NameSpecifier.parse(
                    f"[service=camera[id=c{i}]][room=51{i}][vspace=bulk]"
                ),
                announcer_host=f"hôte-{i}-東京",
                announcer_startup=1.0 + i,
                endpoints=tuple(
                    (f"ñode-{i}-{j}.例え", 4000 + j, "udp") for j in range(3)
                ),
                anycast_metric=0.5, route_metric=1.0, lifetime=20.0,
            )
            for i in range(4)
        ),
    )


def test_wire_size_tracks_encoding():
    """Each frame is charged its byte layout: ``BASE_OVERHEAD`` (28) for
    the header and the body's bytes. The literals are what the byte
    codec the closed form replaced measured, ``len(encode()) + 20``."""
    assert [m.wire_size() for m in _sample_messages()] == [
        49,   # OFFER
        43,   # ACCEPT of the offer
        43,   # ACCEPT of a chunk
        361,  # TRANSFER of three records
        52,   # final TRANSFER, no records
        45,   # COMMIT
        60,   # ABORT
    ]
    assert _multibyte_transfer().wire_size() == 808


# ----------------------------------------------------------------------
# The fence arithmetic
# ----------------------------------------------------------------------
def test_handoff_ids_monotonic_across_incarnations():
    """A restarted donor's first id beats anything its previous
    incarnation issued — the property the recipient fence rests on."""
    last_before_crash = compose_handoff_id(4, 0xFFFF)
    first_after_restart = compose_handoff_id(5, 0)
    assert first_after_restart > last_before_crash


def test_handoff_id_range_checks():
    for incarnation, sequence in ((-1, 0), (0x10000, 0), (0, -1),
                                  (0, 0x10000)):
        with pytest.raises(DelegationWireError):
            compose_handoff_id(incarnation, sequence)


# ----------------------------------------------------------------------
# Fields the layout cannot hold
# ----------------------------------------------------------------------
def test_encode_guards_oversized_fields():
    with pytest.raises(DelegationWireError, match="string too long"):
        DelegateOffer(sender="x" * 70000, handoff_id=1, vspace="v",
                      total_records=1).wire_size()
    too_many = DelegateTransfer(
        sender="d", handoff_id=1, vspace="v", seq=0, final=True,
        records=tuple(
            _record(0) for _ in range(MAX_RECORDS_PER_TRANSFER + 1)
        ),
    )
    with pytest.raises(DelegationWireError, match="too many records"):
        too_many.wire_size()
    with pytest.raises(DelegationWireError, match="out of range"):
        DelegateCommit(sender="d", handoff_id=1 << 32, vspace="v").wire_size()
    crowded = DelegateTransfer(
        sender="d", handoff_id=1, vspace="v", seq=0, final=True,
        records=(DelegateRecord(
            name=NameSpecifier.parse("[a=b]"), announcer_host="h",
            announcer_startup=0.0, endpoints=(("h", 1, "udp"),) * 256,
            anycast_metric=0.0, route_metric=0.0, lifetime=1.0,
        ),),
    )
    with pytest.raises(DelegationWireError, match="too many endpoints"):
        crowded.wire_size()
