"""Crash-safe vspace delegation: the two-phase handoff (PROTOCOL.md §11).

The paper's §2.5 cure for update overload is to delegate a virtual
space to a freshly spawned INR. Done as a single-shot transfer (the
``delegation_two_phase=False`` ablation, kept in
``LoadControl._delegate_vspace``)
the one mechanism meant to save an overloaded resolver can itself lose
every name in the vspace if either side dies mid-handoff. This module
makes the handoff survive crashes on both sides:

Donor state machine::

    OFFER ──accept──► TRANSFER ──final chunk──► AWAIT-COMMIT ──commit──► done
      │ timeout·N        │ timeout·N                │ timeout·N
      └──────────────────┴───────────► ABORT ◄──────┘   (tree kept)

Recipient state machine::

    (offer) ──► STAGING ──final chunk──► COMMITTED ──echo──► settled
                   │ abort                  │ abort
                   ▼                        ▼
                discard                  ROLLBACK (un-adopt)

Safety comes from three rules:

1. **The donor keeps serving.** The vspace's tree stays in the donor's
   ``trees`` — answering lookups and accepting updates — until the
   recipient's COMMIT lands, and the recipient stages records *outside*
   its ``trees`` until the final chunk. At every instant before commit
   exactly one side is authoritative, and it holds all the state.
2. **Fencing.** Every handoff carries an id that is monotonic per donor
   even across donor crashes (restart incarnation in the high bits). A
   recipient remembers the ids it has settled and the highest id each
   donor has used, so a stale retransmission can never reopen or
   resurrect a handoff — it is answered with the settled outcome, or
   dropped and counted (``delegate_stale_dropped``).
3. **Abort wins, and only the donor aborts what it never finalized.**
   A donor that crashes mid-handoff forgets the in-flight id; if the
   recipient meanwhile committed and retransmits its COMMIT, the
   restarted donor sees an unknown id — it answers with an echo if it
   no longer routes the vspace (the commit must have finalized before
   the crash, since ``delegated_away`` is in the crash snapshot), and
   with an ABORT if it still routes it (it cannot have finalized). The
   recipient rolls the adoption back on such an abort, so the
   two-generals race always converges to exactly one authority.

Crash snapshots follow the custody/DSR pattern: ``crash()`` preserves
the *finalized* facts only — which vspaces were delegated away and
which were adopted — and ``restart()`` re-applies them to the rebuilt
tree set. Adopted trees come back empty and refill from the soft-state
advertisement stream the donor forwards; nothing in-flight survives, by
design.

Layering: this module sits inside ``resolver`` (same lint-DAG node) and
speaks only ``message.delegation`` frames; wall-clock access is
forbidden here as everywhere in ``src`` — all time comes from the
hosting INR's simulated clock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..message.delegation import (
    DelegateAbort,
    DelegateAccept,
    DelegateCommit,
    DelegateOffer,
    DelegateRecord,
    DelegateTransfer,
    OFFER_ACCEPTED,
    compose_handoff_id,
)
from ..nametree import LOCAL_ROUTE, AnnouncerID, Endpoint, NameRecord
from ..obs import DROP_PREFIX, STATUS_OK
from .costs import cost_per_record, cost_receive
from .ports import INR_PORT

#: How many settled handoff outcomes a recipient remembers per process.
#: Old entries fall off FIFO; the per-donor fence still rejects their
#: ids as stale, so forgetting an outcome only downgrades the answer
#: from "resend terminal" to "drop and count".
SETTLED_MEMORY = 32

#: Retransmissions allowed per handoff phase before the donor aborts
#: and keeps the vspace.
MAX_RETRIES = 3

#: Cap on donor-side remembered aborted ids (late COMMITs for them get
#: an ABORT back instead of a mistaken echo).
ABORTED_MEMORY = 64


@dataclass
class DonorHandoff:
    """Donor-side state for one in-flight handoff."""

    handoff_id: int
    vspace: str
    recipient: str
    chunks: List[Tuple[DelegateRecord, ...]]
    total_records: int
    phase: str = "offer"  # offer -> transfer -> await-commit
    next_chunk: int = 0
    chunks_acked: int = 0
    retries: int = 0
    #: bumped on every (re)send; timers fence on it so a superseded
    #: timeout cannot double-fire into a newer phase
    epoch: int = 0


@dataclass
class RecipientHandoff:
    """Recipient-side state for one in-flight handoff."""

    handoff_id: int
    vspace: str
    donor: str
    total_records: int
    phase: str = "staging"  # staging -> committed (then settled)
    expected_seq: int = 0
    staged: List[DelegateRecord] = field(default_factory=list)
    commit_resends: int = 0
    epoch: int = 0


class DelegationCoordinator:
    """Both sides of the two-phase handoff, hosted inside one INR.

    The coordinator owns no timers or sockets of its own — it drives
    everything through the hosting INR's :meth:`send`/:meth:`set_timer`
    so simulated time, CPU charging and tracing all flow through the
    same paths as every other resolver message.
    """

    def __init__(self, inr) -> None:
        self.inr = inr
        self._next_seq = 0
        #: at most one outbound handoff at a time; overload persistence
        #: re-triggers the next attempt through the load checker
        self.donor: Optional[DonorHandoff] = None
        #: in-flight inbound handoffs by id (staging or awaiting echo)
        self.recipients: Dict[int, RecipientHandoff] = {}
        #: settled inbound outcomes: id -> (outcome, vspace, donor)
        self._settled: "OrderedDict[int, Tuple[str, str, str]]" = OrderedDict()
        #: per-donor fence: highest handoff id ever accepted
        self._fence: Dict[str, int] = {}
        #: vspaces this resolver handed away, and to whom (finalized
        #: only; survives crashes via the snapshot)
        self.delegated_away: Dict[str, str] = {}
        #: vspaces this resolver adopted, and from whom (ditto)
        self.adopted: Dict[str, str] = {}
        #: the handoff id each adoption arrived under — carried in the
        #: crash snapshot so a restarted recipient can probe its donor
        #: (see :meth:`adopt_snapshot`)
        self._adopted_ids: Dict[str, int] = {}
        #: ids this donor aborted (a late COMMIT for one gets an ABORT)
        self._aborted_ids: "OrderedDict[int, str]" = OrderedDict()
        self._last_abort_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Queries the INR's policy code asks
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while any handoff is in flight on either side — the
        load checker neither starts another delegation nor lets a
        spawned resolver consider termination meanwhile."""
        return self.donor is not None or bool(self.recipients)

    def can_start(self, now: float) -> bool:
        """Idempotent-retry pacing: after an abort the donor sits out
        ``delegation_retry_cooldown`` before claiming a fresh candidate."""
        if self.donor is not None:
            return False
        if self._last_abort_at is None:
            return True
        return now - self._last_abort_at >= self.inr.config.delegation_retry_cooldown

    # ------------------------------------------------------------------
    # Crash snapshot (the DSR/custody stable-storage pattern)
    # ------------------------------------------------------------------
    def crash_snapshot(self) -> tuple:
        """The finalized delegation facts that survive this process."""
        return (
            tuple(sorted(self.delegated_away.items())),
            tuple(
                (vspace, donor, self._adopted_ids.get(vspace, 0))
                for vspace, donor in sorted(self.adopted.items())
            ),
        )

    def adopt_snapshot(self, snapshot: tuple) -> None:
        """Re-apply a crash snapshot after ``restart()`` rebuilt the
        initial tree set: delegated-away vspaces leave again, adopted
        ones come back (empty — soft state refills them).

        Each restored adoption also re-sends its COMMIT as a probe.
        The donor's answer resolves the one race a single-sided restart
        cannot: if the donor crashed too before finalizing, it still
        routes the vspace and answers with an ABORT that rolls this
        adoption back (abort wins — exactly one authority); a finalized
        donor echoes the COMMIT, which :meth:`_on_commit` recognizes
        and drops."""
        if not snapshot:
            return
        delegated, adopted = snapshot
        inr = self.inr
        for vspace, recipient in delegated:
            self.delegated_away[vspace] = recipient
            inr.drop_tree(vspace)
            inr.dataplane.remember_vspace(vspace, recipient)
        for vspace, donor, handoff_id in adopted:
            self.adopted[vspace] = donor
            self._adopted_ids[vspace] = handoff_id
            if vspace not in inr.trees:
                inr.trees[vspace] = inr.new_tree(vspace)
            self._tell_commit(donor, handoff_id, vspace)

    def shutdown(self) -> None:
        """Graceful termination: tell the recipient of any in-flight
        outbound handoff not to wait for chunks that will never come."""
        if self.donor is not None:
            self._donor_abort("donor-terminating")

    # ------------------------------------------------------------------
    # Donor: starting a handoff
    # ------------------------------------------------------------------
    def begin(self, candidate: str) -> None:
        """Hand the busiest vspace to a fresh INR spawned on
        ``candidate``, via the two-phase protocol."""
        inr = self.inr
        if self.donor is not None or len(inr.trees) <= 1 or inr.spawner is None:
            return
        vspace = max(inr.trees, key=lambda v: len(inr.trees[v]))
        tree = inr.trees[vspace]
        now = inr.now
        records = []
        for name, record in tree.names():
            records.append(
                DelegateRecord(
                    name=name,
                    announcer_host=record.announcer.host,
                    announcer_startup=record.announcer.startup_time,
                    endpoints=tuple(
                        (e.host, e.port, e.transport) for e in record.endpoints
                    ),
                    anycast_metric=record.anycast_metric,
                    route_metric=record.route.metric,
                    lifetime=record.expires_at - now,
                )
            )
        chunk = max(1, self.inr.config.delegation_chunk_names)
        chunks = [
            tuple(records[i:i + chunk]) for i in range(0, len(records), chunk)
        ] or [()]
        handoff_id = compose_handoff_id(
            inr.restarts & 0xFFFF, self._next_seq & 0xFFFF
        )
        self._next_seq += 1
        # The recipient is spawned with NO vspaces: it must not appear
        # authoritative for anything until it adopts the staged tree.
        inr.spawner(candidate, ())
        self.donor = DonorHandoff(
            handoff_id=handoff_id,
            vspace=vspace,
            recipient=candidate,
            chunks=chunks,
            total_records=len(records),
        )
        inr.stats.delegations_started += 1
        self._emit_span("donor", "offer", handoff_id, vspace,
                        note=f"{len(records)} records to {candidate}")
        self._send_offer(self.donor)

    def _send_offer(self, handoff: DonorHandoff) -> None:
        inr = self.inr
        handoff.epoch += 1
        inr.send(
            handoff.recipient,
            INR_PORT,
            DelegateOffer(
                sender=inr.address,
                handoff_id=handoff.handoff_id,
                vspace=handoff.vspace,
                total_records=handoff.total_records,
            ),
        )
        inr.set_timer(
            inr.config.delegation_timeout,
            self._donor_timeout,
            handoff.handoff_id,
            handoff.epoch,
        )

    def _send_chunk(self, handoff: DonorHandoff) -> None:
        inr = self.inr
        index = handoff.next_chunk
        final = index == len(handoff.chunks) - 1
        handoff.epoch += 1
        records = handoff.chunks[index]
        inr.send(
            handoff.recipient,
            INR_PORT,
            DelegateTransfer(
                sender=inr.address,
                handoff_id=handoff.handoff_id,
                vspace=handoff.vspace,
                seq=index,
                final=final,
                records=records,
            ),
        )
        inr.stats.delegate_records_sent += len(records)
        if final and handoff.phase != "await-commit":
            handoff.phase = "await-commit"
            self._emit_span("donor", "await-commit", handoff.handoff_id,
                            handoff.vspace)
        inr.set_timer(inr.config.delegation_timeout, self._donor_timeout,
                      handoff.handoff_id, handoff.epoch)

    def _donor_timeout(self, handoff_id: int, epoch: int) -> None:
        handoff = self.donor
        if handoff is None or handoff.handoff_id != handoff_id:
            return
        if handoff.epoch != epoch:
            return  # progress happened since this timer was armed
        handoff.retries += 1
        if handoff.retries > MAX_RETRIES:
            self._donor_abort(f"timeout:{handoff.phase}")
            return
        if handoff.phase == "offer":
            self._send_offer(handoff)
        else:
            # transfer and await-commit both retransmit the current
            # chunk; a committed recipient answers the final chunk's
            # retransmission with its COMMIT.
            self._send_chunk(handoff)

    def _donor_abort(self, reason: str, notify: bool = True) -> None:
        inr = self.inr
        handoff = self.donor
        if handoff is None:
            return
        self.donor = None
        self._last_abort_at = inr.now
        self._aborted_ids[handoff.handoff_id] = handoff.vspace
        while len(self._aborted_ids) > ABORTED_MEMORY:
            self._aborted_ids.popitem(last=False)
        inr.stats.delegations_aborted += 1
        if notify:
            self._tell_abort(
                handoff.recipient, handoff.handoff_id, handoff.vspace, reason
            )
        # The tree never left self.trees: the donor simply remains
        # authoritative, and the load checker retries (new candidate,
        # new id) after the cooldown.
        self._emit_span("donor", "abort", handoff.handoff_id, handoff.vspace,
                        status=f"abort:{reason}")

    def _donor_finalize(self, handoff: DonorHandoff) -> None:
        """COMMIT landed: let go of the vspace, atomically with the
        re-registration that removes it from the DSR's map."""
        inr = self.inr
        self.donor = None
        inr.drop_tree(handoff.vspace)
        self.delegated_away[handoff.vspace] = handoff.recipient
        inr.dataplane.remember_vspace(handoff.vspace, handoff.recipient)
        inr.membership.register()
        inr.stats.delegations_committed += 1
        # Echo stops the recipient's COMMIT retransmission.
        self._tell_commit(handoff.recipient, handoff.handoff_id, handoff.vspace)
        self._emit_span("donor", "commit", handoff.handoff_id, handoff.vspace,
                        note=f"delegated to {handoff.recipient}")

    # ------------------------------------------------------------------
    # Message handlers (registered in HANDLERS, below)
    # ------------------------------------------------------------------
    # -- donor-side receives -------------------------------------------
    def _on_accept(self, accept: DelegateAccept, source: str) -> None:
        handoff = self.donor
        if handoff is None or handoff.handoff_id != accept.handoff_id:
            self._count_stale("accept", accept.handoff_id)
            return
        if accept.ack_seq == OFFER_ACCEPTED:
            if handoff.phase != "offer":
                return  # duplicate offer-accept; the transfer is underway
            handoff.phase = "transfer"
            handoff.retries = 0
            self._emit_span("donor", "transfer", handoff.handoff_id,
                            handoff.vspace,
                            note=f"{len(handoff.chunks)} chunks")
            self._send_chunk(handoff)
            return
        if handoff.phase != "transfer":
            return
        if accept.ack_seq != handoff.next_chunk:
            return  # stale cumulative ack; the current chunk will re-fire
        handoff.chunks_acked += 1
        handoff.next_chunk += 1
        handoff.retries = 0
        self._send_chunk(handoff)

    # -- recipient-side receives ---------------------------------------
    def _on_offer(self, offer: DelegateOffer, source: str) -> None:
        handoff_id = offer.handoff_id
        existing = self.recipients.get(handoff_id)
        if existing is not None:
            # Duplicate offer: repeat whatever answer moved us forward.
            if existing.phase == "staging":
                self._send_accept(source, handoff_id, OFFER_ACCEPTED)
            else:
                self._send_commit(existing)
            return
        settled = self._settled.get(handoff_id)
        if settled is not None:
            self._resend_terminal(handoff_id, settled)
            return
        if handoff_id <= self._fence.get(source, -1):
            self._count_stale("offer", handoff_id)
            return
        self._fence[source] = handoff_id
        handoff = RecipientHandoff(
            handoff_id=handoff_id,
            vspace=offer.vspace,
            donor=source,
            total_records=offer.total_records,
        )
        self.recipients[handoff_id] = handoff
        self._emit_span("recipient", "offer", handoff_id, offer.vspace,
                        note=f"{offer.total_records} records from {source}")
        self._send_accept(source, handoff_id, OFFER_ACCEPTED)
        self._arm_staging(handoff)

    def _on_transfer(self, transfer: DelegateTransfer, source: str) -> None:
        inr = self.inr
        handoff = self.recipients.get(transfer.handoff_id)
        if handoff is None:
            settled = self._settled.get(transfer.handoff_id)
            if settled is not None:
                self._resend_terminal(transfer.handoff_id, settled)
            elif transfer.handoff_id <= self._fence.get(source, -1):
                self._count_stale("transfer", transfer.handoff_id)
            elif (
                self.adopted.get(transfer.vspace) == source
                and self._adopted_ids.get(transfer.vspace) == transfer.handoff_id
            ):
                # We adopted this vspace, crashed before the donor's
                # echo arrived, and the donor is retransmitting the
                # final chunk: answer with the COMMIT the crash
                # swallowed so the donor can finalize.
                self._tell_commit(source, transfer.handoff_id, transfer.vspace)
            else:
                # A chunk for a handoff we never heard of: this process
                # crashed between offer and transfer. Abort fast so the
                # donor keeps its tree instead of burning retries.
                self._tell_abort(
                    source, transfer.handoff_id, transfer.vspace, "no-recipient-state"
                )
            return
        if handoff.phase != "staging":
            self._send_commit(handoff)  # committed: the chunk is a rerun
            return
        if transfer.seq < handoff.expected_seq:
            # Duplicate chunk: re-ack cumulatively.
            self._send_accept(handoff.donor, handoff.handoff_id,
                              handoff.expected_seq - 1)
            return
        if transfer.seq > handoff.expected_seq:
            self._count_stale("transfer-gap", transfer.handoff_id)
            return
        handoff.staged.extend(transfer.records)
        handoff.expected_seq += 1
        inr.stats.delegate_records_received += len(transfer.records)
        if transfer.final:
            self._recipient_adopt(handoff)
        else:
            self._send_accept(handoff.donor, handoff.handoff_id, transfer.seq)
            self._arm_staging(handoff)

    def _recipient_adopt(self, handoff: RecipientHandoff) -> None:
        """Final chunk staged: become authoritative in one step —
        install the tree, register with the DSR, and COMMIT."""
        inr = self.inr
        now = inr.now
        tree = inr.trees.get(handoff.vspace)
        if tree is None:
            tree = inr.new_tree(handoff.vspace)
        for staged in handoff.staged:
            record = NameRecord(
                announcer=AnnouncerID(
                    host=staged.announcer_host,
                    startup_time=staged.announcer_startup,
                ),
                endpoints=[
                    Endpoint(host=host, port=port, transport=transport)
                    for host, port, transport in staged.endpoints
                ],
                anycast_metric=staged.anycast_metric,
                # Installed as directly-known state: the services behind
                # these names advertise to the donor, which forwards
                # their ads here from now on — the same install shape
                # those forwarded ads will refresh.
                route=LOCAL_ROUTE,
                expires_at=now + staged.lifetime,
            )
            tree.insert(staged.name, record)
        inr.trees[handoff.vspace] = tree
        self.adopted[handoff.vspace] = handoff.donor
        self._adopted_ids[handoff.vspace] = handoff.handoff_id
        handoff.staged = []
        handoff.phase = "committed"
        inr.stats.delegations_adopted += 1
        inr.membership.register()
        self._emit_span("recipient", "commit", handoff.handoff_id,
                        handoff.vspace, note=f"{len(tree)} records adopted")
        self._send_commit(handoff)

    def _staging_patience(self) -> float:
        """How long a staging recipient waits with no donor traffic
        before abandoning the handoff: longer than the donor's entire
        retry budget, so a live donor can never be abandoned — only one
        that crashed (and whose restart forgot the handoff) or whose
        ABORT was lost."""
        return self.inr.config.delegation_timeout * (MAX_RETRIES + 2)

    def _arm_staging(self, handoff: RecipientHandoff) -> None:
        handoff.epoch += 1
        self.inr.set_timer(
            self._staging_patience(),
            self._staging_timeout,
            handoff.handoff_id,
            handoff.epoch,
        )

    def _staging_timeout(self, handoff_id: int, epoch: int) -> None:
        handoff = self.recipients.get(handoff_id)
        if handoff is None or handoff.phase != "staging":
            return
        if handoff.epoch != epoch:
            return  # a chunk arrived since this timer was armed
        # Nothing was adopted — discard the staged records, settle the
        # id as aborted (fencing keeps rejecting it), and free this
        # resolver to retire back into the candidate pool.
        self.recipients.pop(handoff_id, None)
        self._remember(handoff_id, "aborted", handoff.vspace, handoff.donor)
        self._tell_abort(
            handoff.donor, handoff_id, handoff.vspace, "staging-timeout"
        )
        self._emit_span("recipient", "abort", handoff_id, handoff.vspace,
                        status="abort:staging-timeout")

    def _send_commit(self, handoff: RecipientHandoff) -> None:
        inr = self.inr
        handoff.epoch += 1
        self._tell_commit(handoff.donor, handoff.handoff_id, handoff.vspace)
        inr.set_timer(
            inr.config.delegation_timeout,
            self._commit_retransmit,
            handoff.handoff_id,
            handoff.epoch,
        )

    def _commit_retransmit(self, handoff_id: int, epoch: int) -> None:
        handoff = self.recipients.get(handoff_id)
        if handoff is None or handoff.phase != "committed":
            return  # settled (echo arrived) or rolled back
        if handoff.epoch != epoch:
            return
        handoff.commit_resends += 1
        if handoff.commit_resends > 4 * MAX_RETRIES:
            # The donor has been gone far past its whole retry budget.
            # We are registered and authoritative; settle locally so
            # this resolver is not pinned busy forever. The settled
            # record still answers any late donor retransmission with
            # our COMMIT, and a donor ABORT still rolls us back.
            self._settle(handoff, "committed")
            return
        self._send_commit(handoff)

    # -- commit/abort, both roles --------------------------------------
    def _on_commit(self, commit: DelegateCommit, source: str) -> None:
        inr = self.inr
        donor = self.donor
        if donor is not None and donor.handoff_id == commit.handoff_id:
            self._donor_finalize(donor)
            return
        recipient = self.recipients.get(commit.handoff_id)
        if recipient is not None:
            if recipient.phase == "committed":
                # The donor's echo: the handoff is fully settled.
                self._settle(recipient, "committed")
            return
        if commit.handoff_id in self._settled:
            return  # duplicate echo
        if self._adopted_ids.get(commit.vspace) == commit.handoff_id:
            return  # the donor's echo to our restart probe; we already
            # hold the adoption — nothing left to exchange
        aborted_vspace = self._aborted_ids.get(commit.handoff_id)
        if aborted_vspace is not None:
            # We aborted this handoff; a COMMIT for it is a recipient
            # that adopted off a retransmitted final chunk. Abort wins.
            self._tell_abort(
                source, commit.handoff_id, commit.vspace, "aborted-handoff"
            )
            return
        # Unknown id: we are a donor that crashed mid-handoff. If we no
        # longer route the vspace the commit finalized before the crash
        # (delegated_away is in the snapshot) — echo idempotently. If we
        # still route it, we cannot have finalized: abort wins.
        if inr.routes_vspace(commit.vspace):
            self._tell_abort(
                source, commit.handoff_id, commit.vspace, "donor-restarted"
            )
        else:
            self._tell_commit(source, commit.handoff_id, commit.vspace)

    def _on_abort(self, abort: DelegateAbort, source: str) -> None:
        donor = self.donor
        if donor is not None and donor.handoff_id == abort.handoff_id:
            # Recipient-initiated abort (crashed recipient, refused
            # state): unwind without echoing another abort back.
            self._donor_abort(abort.reason, notify=False)
            return
        handoff = self.recipients.get(abort.handoff_id)
        if handoff is None:
            settled = self._settled.get(abort.handoff_id)
            if settled is not None and settled[0] == "committed":
                # Defensive: roll back even a settled adoption — the
                # donor only ever aborts ids it never finalized.
                self._rollback(abort.handoff_id, settled[1], settled[2])
            elif (
                self.adopted.get(abort.vspace) == abort.sender
                and self._adopted_ids.get(abort.vspace) == abort.handoff_id
            ):
                # Our restart probe was answered with an abort: the
                # donor crashed too, before finalizing, and still
                # routes the vspace. Abort wins — un-adopt.
                self._rollback(abort.handoff_id, abort.vspace, abort.sender)
            return
        if handoff.phase == "staging":
            self.recipients.pop(abort.handoff_id, None)
            self._remember(abort.handoff_id, "aborted", handoff.vspace,
                           handoff.donor)
            self._emit_span("recipient", "abort", abort.handoff_id,
                            handoff.vspace, status=f"abort:{abort.reason}")
            return
        # Committed but the donor never finalized: rollback (un-adopt).
        self.recipients.pop(abort.handoff_id, None)
        self._remember(abort.handoff_id, "aborted", handoff.vspace,
                       handoff.donor)
        self._rollback(abort.handoff_id, handoff.vspace, handoff.donor)

    def _rollback(self, handoff_id: int, vspace: str, donor: str) -> None:
        inr = self.inr
        if self.adopted.get(vspace) == donor:
            self.adopted.pop(vspace, None)
            self._adopted_ids.pop(vspace, None)
            inr.drop_tree(vspace)
            inr.membership.register()
            inr.stats.delegation_rollbacks += 1
            if handoff_id in self._settled:
                outcome, settled_vspace, settled_donor = self._settled[handoff_id]
                self._settled[handoff_id] = ("aborted", settled_vspace,
                                             settled_donor)
            self._emit_span("recipient", "rollback", handoff_id, vspace,
                            status="abort:rollback")

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _tell_commit(self, peer: str, handoff_id: int, vspace: str) -> None:
        inr = self.inr
        inr.send(
            peer,
            INR_PORT,
            DelegateCommit(sender=inr.address, handoff_id=handoff_id, vspace=vspace),
        )

    def _tell_abort(
        self, peer: str, handoff_id: int, vspace: str, reason: str
    ) -> None:
        inr = self.inr
        inr.send(
            peer,
            INR_PORT,
            DelegateAbort(
                sender=inr.address, handoff_id=handoff_id, vspace=vspace,
                reason=reason,
            ),
        )

    def _send_accept(self, donor: str, handoff_id: int, ack_seq: int) -> None:
        self.inr.send(
            donor,
            INR_PORT,
            DelegateAccept(
                sender=self.inr.address, handoff_id=handoff_id, ack_seq=ack_seq
            ),
        )

    def _settle(self, handoff: RecipientHandoff, outcome: str) -> None:
        self.recipients.pop(handoff.handoff_id, None)
        self._remember(handoff.handoff_id, outcome, handoff.vspace,
                       handoff.donor)

    def _remember(self, handoff_id: int, outcome: str, vspace: str,
                  donor: str) -> None:
        self._settled[handoff_id] = (outcome, vspace, donor)
        while len(self._settled) > SETTLED_MEMORY:
            self._settled.popitem(last=False)

    def _resend_terminal(self, handoff_id: int,
                         settled: Tuple[str, str, str]) -> None:
        """Answer a retransmission for a settled handoff with its
        terminal message — never with fresh state."""
        outcome, vspace, donor = settled
        if outcome == "committed":
            self._tell_commit(donor, handoff_id, vspace)
        else:
            self._tell_abort(donor, handoff_id, vspace, "already-aborted")

    def _count_stale(self, kind: str, handoff_id: int) -> None:
        inr = self.inr
        inr.stats.delegate_stale_dropped += 1
        if inr.tracer is not None:
            span = inr.tracer.start_span(
                "inr.delegate",
                node=inr.address,
                tags={"phase": kind, "handoff": handoff_id},
            )
            inr.tracer.end_span(span, DROP_PREFIX + "delegate-stale")

    def _emit_span(self, role: str, phase: str, handoff_id: int, vspace: str,
                   status: str = STATUS_OK, note: Optional[str] = None) -> None:
        """One root span per phase transition per side. Spans are
        opened and closed at the transition itself (never held across
        simulated time), so a crash can never leak an unfinished span
        into the trace export."""
        inr = self.inr
        if inr.tracer is None:
            return
        span = inr.tracer.start_span(
            "inr.delegate",
            node=inr.address,
            tags={
                "role": role,
                "phase": phase,
                "handoff": handoff_id,
                "vspace": vspace,
            },
        )
        if note:
            inr.tracer.annotate(span, note)
        inr.tracer.end_span(span, status)

    HANDLERS = {
        DelegateOffer: (_on_offer, cost_receive),
        DelegateAccept: (_on_accept, cost_receive),
        DelegateTransfer: (_on_transfer, cost_per_record),
        DelegateCommit: (_on_commit, cost_receive),
        DelegateAbort: (_on_abort, cost_receive),
    }


__all__ = [
    "ABORTED_MEMORY",
    "DelegationCoordinator",
    "DonorHandoff",
    "RecipientHandoff",
    "SETTLED_MEMORY",
]
