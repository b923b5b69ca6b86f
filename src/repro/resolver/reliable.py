"""Reliable in-order delivery between INR neighbors (footnote 3).

The paper notes an alternative to soft-state flooding: "we could have
had the INRs use reliable TCP connections and send updates only for
entries that change, perhaps eliminating periodic updates at the expense
of maintaining connection state in the INRs. We do not explore this
option further in this paper, but intend to in the future."

This module is that exploration. :class:`ReliableChannel` gives an INR
per-neighbor TCP-like semantics over the UDP substrate: sequence
numbers, cumulative acks, retransmission on timeout, in-order delivery,
duplicate suppression. The resolver uses it (``update_mode =
"reliable-delta"``) to send only *changed* entries plus explicit
withdrawals, instead of re-flooding every name each refresh interval.
The bandwidth/staleness comparison is the ``update-modes`` spec of
``repro.xp.default_suite()``.

Connections are identified by an *epoch* (a process-unique incarnation
number) carried on every frame and ack, playing the role TCP's initial
sequence number negotiation plays. A sender that resets a connection —
a restart after a crash, an explicit :meth:`ReliableChannel.reset`, or
abandoning a neighbor after too many retransmissions — draws a fresh,
strictly larger epoch and restarts its sequence at 1. A receiver that
sees a frame with a newer epoch discards its receive state for that
neighbor and accepts the new incarnation from sequence 1; frames from
an older epoch are dropped as stale. Without this, a crashed-and-
restarted sender's fresh sequence numbers would sit below the
receiver's stale ``expected`` cursor and every new frame would be
silently swallowed as a duplicate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional


@dataclass
class ReliableFrame:
    """One sequenced payload on a reliable neighbor connection."""

    sender: str
    sequence: int
    inner: Any
    epoch: int = 0

    def wire_size(self) -> int:
        sizer = getattr(self.inner, "wire_size", None)
        return 12 + (int(sizer()) if callable(sizer) else 0)


@dataclass
class ReliableAck:
    """Cumulative ack: every frame of ``epoch`` up to ``sequence`` was
    delivered."""

    sender: str
    sequence: int
    epoch: int = 0

    def wire_size(self) -> int:
        return 40  # header-sized, like a bare TCP ack


@dataclass
class _PendingFrame:
    frame: ReliableFrame
    retransmissions: int = 0


class ReliableChannel:
    """One INR's reliable connections to its neighbors.

    The owner provides ``transmit(neighbor, payload)`` (raw datagram
    send), ``deliver(neighbor, payload)`` (in-order application
    delivery) and ``set_timer(delay, fn)``; the channel handles
    sequencing, acks, retransmits, reordering and connection epochs.
    """

    MAX_RETRANSMISSIONS = 30

    #: How far past the in-order cursor a frame may run before the
    #: receiver drops it instead of buffering it. Bounds the per-
    #: neighbor reorder buffer so a partitioned or lossy peer cannot
    #: grow it without limit; retransmission recovers dropped frames.
    MAX_REORDER_BUFFER = 64

    #: Process-unique connection incarnations. Monotonic, so any new
    #: connection's epoch compares greater than every epoch that any
    #: previous incarnation (even in a restarted channel) ever used.
    _incarnations = itertools.count(1)

    def __init__(
        self,
        transmit: Callable[[str, Any], None],
        deliver: Callable[[str, Any], None],
        set_timer: Callable[..., Any],
        retransmit_timeout: float = 1.0,
    ) -> None:
        self._transmit = transmit
        self._deliver = deliver
        self._set_timer = set_timer
        self.retransmit_timeout = retransmit_timeout
        self._next_sequence: Dict[str, int] = {}
        self._send_epoch: Dict[str, int] = {}
        self._unacked: Dict[str, Dict[int, _PendingFrame]] = {}
        self._expected: Dict[str, int] = {}
        self._recv_epoch: Dict[str, int] = {}
        self._reorder: Dict[str, Dict[int, Any]] = {}
        self.retransmissions = 0
        self.duplicates_dropped = 0
        #: connections abandoned after MAX_RETRANSMISSIONS and reset
        self.connection_resets = 0
        #: receive states discarded because a newer epoch arrived
        self.epoch_resets = 0
        #: frames dropped because they carried an outdated epoch
        self.stale_epoch_dropped = 0
        #: frames dropped because they ran past the reorder window
        self.reorder_dropped = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, neighbor: str, payload: Any) -> None:
        """Queue ``payload`` for reliable in-order delivery."""
        epoch = self._send_epoch.get(neighbor)
        if epoch is None:
            epoch = next(self._incarnations)
            self._send_epoch[neighbor] = epoch
        sequence = self._next_sequence.get(neighbor, 1)
        self._next_sequence[neighbor] = sequence + 1
        frame = ReliableFrame(
            sender="", sequence=sequence, inner=payload, epoch=epoch
        )
        self._unacked.setdefault(neighbor, {})[sequence] = _PendingFrame(frame)
        self._push(neighbor, sequence)

    def _push(self, neighbor: str, sequence: int) -> None:
        pending = self._unacked.get(neighbor, {}).get(sequence)
        if pending is None:
            return  # acked (or reset away) in the meantime
        if pending.retransmissions > self.MAX_RETRANSMISSIONS:
            # The neighbor is unreachable. Dropping just this frame
            # while its successors eventually deliver would create a
            # silent gap in the in-order stream; reset the whole
            # connection instead, so anything sent from now on starts a
            # new epoch the receiver recognizes as a fresh stream.
            self.connection_resets += 1
            self.reset(neighbor)
            return
        if pending.retransmissions:
            self.retransmissions += 1
        pending.retransmissions += 1
        self._transmit(neighbor, pending.frame)
        self._set_timer(self.retransmit_timeout, self._push, neighbor, sequence)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_frame(self, neighbor: str, frame: ReliableFrame) -> Optional[ReliableAck]:
        """Process an incoming frame; returns the ack to transmit, or
        None for frames of an outdated epoch (acking those could only
        confuse a sender that has already moved on)."""
        current_epoch = self._recv_epoch.get(neighbor)
        if current_epoch is not None and frame.epoch < current_epoch:
            self.stale_epoch_dropped += 1
            return None
        if current_epoch is None or frame.epoch > current_epoch:
            # A new connection incarnation: the peer restarted or reset.
            # Drop all receive state and take the stream from the top.
            if current_epoch is not None:
                self.epoch_resets += 1
            self._recv_epoch[neighbor] = frame.epoch
            self._expected[neighbor] = 1
            self._reorder.pop(neighbor, None)
        expected = self._expected.get(neighbor, 1)
        if frame.sequence < expected:
            self.duplicates_dropped += 1
        elif frame.sequence == expected:
            self._deliver(neighbor, frame.inner)
            expected += 1
            buffered = self._reorder.get(neighbor, {})
            while expected in buffered:
                self._deliver(neighbor, buffered.pop(expected))
                expected += 1
            self._expected[neighbor] = expected
        elif frame.sequence - expected > self.MAX_REORDER_BUFFER:
            self.reorder_dropped += 1
        else:
            self._reorder.setdefault(neighbor, {})[frame.sequence] = frame.inner
        return ReliableAck(
            sender="",
            sequence=self._expected.get(neighbor, 1) - 1,
            epoch=self._recv_epoch[neighbor],
        )

    def on_ack(self, neighbor: str, ack: ReliableAck) -> None:
        if ack.epoch != self._send_epoch.get(neighbor):
            return  # ack for a previous incarnation of this connection
        unacked = self._unacked.get(neighbor)
        if not unacked:
            return
        for sequence in [s for s in unacked if s <= ack.sequence]:
            del unacked[sequence]

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def reset(self, neighbor: str) -> None:
        """Drop all connection state for a neighbor.

        The next ``send`` to that neighbor draws a fresh epoch and
        restarts its sequence at 1, which the receiver recognizes as a
        new stream (no frames silently dropped as duplicates)."""
        self._next_sequence.pop(neighbor, None)
        self._send_epoch.pop(neighbor, None)
        self._unacked.pop(neighbor, None)
        self._expected.pop(neighbor, None)
        self._recv_epoch.pop(neighbor, None)
        self._reorder.pop(neighbor, None)

    def unacked_count(self, neighbor: str) -> int:
        return len(self._unacked.get(neighbor, {}))

    def reorder_buffered(self, neighbor: str) -> int:
        return len(self._reorder.get(neighbor, {}))
