"""Tunable parameters of an INR.

Defaults follow the paper where it gives numbers (15-second refresh
interval in the Figure 8/9/15 experiments; soft-state lifetimes are three
refresh periods, the conventional soft-state rule that tolerates two
consecutive lost refreshes).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class InrConfig:
    """Configuration knobs for one INR (all times in seconds)."""

    #: Interval between periodic update batches to neighbors and between
    #: a service's re-advertisements. The paper's experiments use 15 s.
    refresh_interval: float = 15.0

    #: Soft-state lifetime granted to names on insert/refresh.
    record_lifetime: float = 45.0

    #: How often the expiry sweep runs.
    expiry_sweep_interval: float = 5.0

    #: Heartbeat interval to the DSR.
    heartbeat_interval: float = 10.0

    #: A neighbor silent for this long is declared dead.
    neighbor_timeout: float = 50.0

    #: --- Load balancing (Section 2.5) --------------------------------
    #: Enable spawn/terminate decisions.
    enable_load_balancing: bool = False

    #: Lookups per second above which an INR tries to spawn a helper.
    spawn_lookup_rate: float = 400.0

    #: Update names per second above which a vspace is delegated.
    delegate_update_rate: float = 600.0

    #: Lookup rate below which a spawned INR terminates itself.
    terminate_lookup_rate: float = 1.0

    #: Seconds between load-policy evaluations.
    load_check_interval: float = 10.0

    #: A freshly spawned INR will not self-terminate before this age.
    minimum_lifetime: float = 30.0

    #: --- Crash-safe vspace delegation (PROTOCOL.md §11) --------------
    #: Use the two-phase OFFER/ACCEPT/TRANSFER/COMMIT handoff when
    #: delegating a vspace. False falls back to the single-shot
    #: transfer (the ablation: no crash safety, no dual serving).
    delegation_two_phase: bool = True

    #: Seconds a handoff waits on each exchange before retransmitting:
    #: the donor for the offer's acceptance, a chunk's cumulative ack
    #: or the recipient's COMMIT, the recipient for the donor's echo.
    delegation_timeout: float = 1.0

    #: Name-records per DELEGATE-TRANSFER chunk (stop-and-wait).
    delegation_chunk_names: int = 32

    #: Seconds after an aborted handoff before the donor will claim a
    #: fresh candidate and retry (idempotently, under a new id).
    delegation_retry_cooldown: float = 5.0

    #: --- Overlay relaxation (extension; Section 2.4 future work) -----
    #: Periodically re-evaluate the parent peering and switch to a
    #: lower-RTT earlier-ordered INR when the improvement is large.
    enable_relaxation: bool = False

    #: Maximum entries in the data-packet cache (0 disables caching).
    packet_cache_size: int = 128

    #: --- Disruption tolerance (custody store-and-forward) ------------
    #: When enabled, a payload the forwarding agent cannot move — no
    #: matching record, every match expired, or a silent next hop — is
    #: parked in a bounded custody store and re-attempted when name
    #: state returns, instead of being dropped. Defaults off: dropping
    #: is the paper's behavior and what the figure experiments measure.
    enable_custody: bool = False

    #: Seconds a payload may wait in custody before it lapses.
    custody_ttl: float = 30.0

    #: A next hop silent for longer than this is treated as unreachable
    #: at forward time, diverting the payload into custody rather than
    #: onto a dead link. 0 disables the check (forward regardless).
    custody_suspect_silence: float = 0.0

    #: --- Inter-INR update transport (footnote 3) ---------------------
    #: "soft-state": the paper's shipped design — periodic re-floods of
    #: every name plus triggered updates, names expire by lifetime.
    #: "reliable-delta": TCP-like per-neighbor connections carrying only
    #: changed entries and explicit withdrawals; periodic messages
    #: shrink to empty keepalives.
    update_mode: str = "soft-state"
