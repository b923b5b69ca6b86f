"""Load monitoring and the spawn/terminate and vspace-delegation
decisions (Section 2.5).

The paper identifies two distinct overload modes with different cures:

- **lookup overload** — cured by spawning another INR for the *same*
  vspaces on a candidate node, letting the client configuration
  protocol move some clients over;
- **update overload** — spawning a same-space replica does not help
  (every replica still processes every name), so the cure is to
  *delegate* one or more virtual spaces to a new INR network.

:class:`LoadMonitor` turns the resolver's counters into rates;
:class:`LoadControl` is the policy: it samples the monitor, claims a
candidate node from the DSR when a threshold is crossed, and retires a
spawned resolver that has gone idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..message.dsr import (
    DsrClaimCandidate,
    DsrClaimResponse,
    DsrVspaceRequest,
    DsrVspaceResponse,
)
from .costs import cost_receive
from .ports import INR_PORT
from .protocol import UpdateBatch
from .stats import InrStats


@dataclass
class LoadSample:
    """Rates observed over one measurement window."""

    window: float
    lookups_per_second: float
    update_names_per_second: float


class LoadMonitor:
    """Windowed rates of resolver work: what its incarnation's
    ``InrStats`` counted between two samples."""

    def __init__(self, stats: InrStats, now: float = 0.0) -> None:
        self._stats = stats
        self._window_start = now
        self._counted = self._count()

    def _count(self) -> Tuple[int, int]:
        """Lookups, and names heard in advertisements and update batches."""
        stats = self._stats
        names = stats.update_names_processed + stats.advertisements_processed
        return stats.lookups, names

    def sample(self, now: float) -> LoadSample:
        """Rates since the last sample; resets the window."""
        window = max(now - self._window_start, 1e-9)
        lookups_before, names_before = self._counted
        self._counted = lookups, names = self._count()
        self._window_start = now
        return LoadSample(
            window=window,
            lookups_per_second=(lookups - lookups_before) / window,
            update_names_per_second=(names - names_before) / window,
        )


class LoadControl:
    """The Section 2.5 policy of one INR: act on each load sample."""

    def __init__(self, inr) -> None:
        self.inr = inr
        self.monitor = LoadMonitor(inr.stats, inr.now)
        self._started_at = inr.now
        #: the one candidate claim in flight at the DSR: ``(request_id,
        #: purpose)``; a claim response matching no claim is ignored
        self._claim: Optional[Tuple[int, str]] = None
        #: vspace -> "another resolver routes it too", while a
        #: self-termination check is in flight
        self._termination_votes: Optional[Dict[str, Optional[bool]]] = None

    def check(self) -> None:
        inr = self.inr
        sample = self.monitor.sample(inr.now)
        if inr.spawner is None or self._claim is not None:
            return
        config = inr.config
        if sample.lookups_per_second > config.spawn_lookup_rate:
            self._claim_candidate(purpose="spawn")
        elif (
            sample.update_names_per_second > config.delegate_update_rate
            and len(inr.trees) > 1
        ):
            # one handoff at a time; cooldown after aborts
            if not inr.delegation.busy and inr.delegation.can_start(inr.now):
                self._claim_candidate(purpose="delegate")
        elif (
            inr.was_spawned
            and sample.lookups_per_second < config.terminate_lookup_rate
            and inr.now - self._started_at > config.minimum_lifetime
            # never retire mid-handoff (either role)
            and not inr.delegation.busy
        ):
            self._consider_termination()

    def _consider_termination(self) -> None:
        """Self-terminate only if every vspace this INR routes is also
        routed by another resolver — a delegated vspace's sole resolver
        must stay up however idle it is."""
        inr = self.inr
        if self._termination_votes is not None:
            return  # a check is already in flight
        if not inr.trees:
            # A spawned recipient whose handoff aborted routes nothing
            # and serves nobody: retire immediately (terminate() puts
            # the node back in the candidate pool for the retry).
            inr.terminate()
            return
        self._termination_votes = {vspace: None for vspace in inr.trees}
        for vspace in inr.trees:
            inr.tell_dsr(
                DsrVspaceRequest(
                    vspace=vspace, reply_to=inr.address, reply_port=inr.port
                )
            )

    def tally_termination_vote(self, response: DsrVspaceResponse) -> None:
        votes = self._termination_votes
        if votes is None or response.vspace not in votes:
            return
        votes[response.vspace] = any(
            resolver != self.inr.address for resolver in response.resolvers
        )
        if any(vote is None for vote in votes.values()):
            return
        self._termination_votes = None
        if all(votes.values()):
            self.inr.terminate()

    def _claim_candidate(self, purpose: str) -> None:
        inr = self.inr
        claim = DsrClaimCandidate(
            requester=inr.address, reply_to=inr.address, reply_port=inr.port
        )
        self._claim = (claim.request_id, purpose)
        inr.tell_dsr(claim)

    def _handle_claim_response(
        self, response: DsrClaimResponse, source: str
    ) -> None:
        inr = self.inr
        claim = self._claim
        if claim is None or claim[0] != response.request_id:
            # Unsolicited, a duplicate, or the answer to a claim a
            # previous incarnation made: spawning on it would bind a
            # second resolver to a node nobody reserved for us.
            return
        self._claim = None
        if not response.candidate or inr.spawner is None:
            return
        purpose = claim[1]
        if purpose == "spawn":
            # Lookup overload: replicate this INR's vspaces on the
            # candidate; clients re-selecting a default INR spread out.
            inr.spawner(response.candidate, inr.vspaces)
        elif inr.config.delegation_two_phase:
            inr.delegation.begin(response.candidate)
        else:
            self._delegate_vspace(response.candidate)

    def _delegate_vspace(self, candidate: str) -> None:
        """Hand the busiest vspace to a fresh INR on ``candidate``.

        The single-shot legacy path (``delegation_two_phase=False``):
        spawn, fling one update batch, drop the tree. No offer, no
        acks, no commit — a crash on either side mid-handoff loses the
        vspace's names until services re-advertise, and can leave the
        space with no authoritative resolver. Kept as the ablation the
        delegation chaos scenario measures against.
        """
        inr = self.inr
        if len(inr.trees) <= 1:
            return
        vspace = max(inr.trees, key=lambda v: len(inr.trees[v]))
        tree = inr.trees[vspace]
        inr.spawner(candidate, (vspace,))
        _, updates = inr.discovery.table(tree)
        inr.send(candidate, INR_PORT, UpdateBatch(inr.address, updates, triggered=True))
        inr.drop_tree(vspace)
        inr.dataplane.remember_vspace(vspace, candidate)
        inr.membership.register()  # refresh the DSR's view of our vspaces

    HANDLERS = {DsrClaimResponse: (_handle_claim_response, cost_receive)}
