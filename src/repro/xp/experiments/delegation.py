"""Delegation under fire: the two-phase vspace handoff vs crashes.

The load balancer's cure for update overload (Section 2.5) is to
delegate a virtual space to a freshly spawned INR. The handoff is the
one moment the soft-state argument does not cover: records are in
flight between two processes, and a crash on either side can leave the
vspace with no authoritative resolver — or two. This scenario holds a
resolver in sustained update overload so it *must* delegate, then
crashes the donor or the recipient at a chosen phase of the handoff
(offer, mid-transfer, await-commit, committed) and restarts it shortly
after, while steady client lookups against the delegated vspace run
throughout. Measured per run:

- lookup success rate inside the handoff window (the dual-serving
  guarantee: the donor answers until COMMIT lands);
- name records lost after convergence (must be zero);
- the delegation invariants: exactly one authoritative INR per vspace,
  no handoff left in flight (:meth:`InvariantChecker
  .single_vspace_authority`, :meth:`InvariantChecker
  .delegations_settled`), plus the standard converged set.

The crash is *phase-triggered*, not wall-scheduled: a fine-grained
deterministic poller watches the donor's coordinator and fires the
crash the instant the target phase is observed, so every run in the
role x phase matrix actually exercises the transition it names (a
pre-computed :class:`FaultPlan` cannot, because the handoff's start
time depends on load-policy timing).

Two workloads. ``delegation-matrix`` is the crash matrix. ``delegation``
runs a recipient crash with no operator restart, and its
``delegation_two_phase`` arm is the paper-era single-shot transfer as a
controlled ablation: the records are flung in one unacknowledged batch
and the tree dropped, so the crash loses the vspace outright until the
operator restarts the recipient and soft state refills it.
``BENCH_delegation.json`` records both (:func:`bench_delegation_payload`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Tuple

from ...chaos import InvariantChecker
from ...chaos.scenario import chaos_domain, fast_chaos_config
from ...experiments.domain import InsDomain
from ...naming import NameSpecifier
from ...obs import spans_to_jsonl
from ...resolver import InrConfig
from ..runner import Output, SpecRun, Workload, WorkloadResult, register_workload
from . import add_observability, report_metrics, summed_counters
from .availability import CHAOS_RETRY_POLICY

#: The handoff phases a seeded crash can target. The first three are
#: donor-side state-machine phases; "committed" is the recipient-side
#: window between adopting the tree and receiving the donor's echo.
CRASH_PHASES: Tuple[str, ...] = (
    "offer",
    "transfer",
    "await-commit",
    "committed",
)

CRASH_ROLES: Tuple[str, ...] = ("donor", "recipient")

#: The vspace the overloaded donor hands off, and the one it keeps.
DELEGATED_VSPACE = "bulk"
KEPT_VSPACE = "anchor"

#: Seconds between a service's re-advertisements: fast enough that the
#: bulk space's stream holds the donor over its delegate threshold.
SERVICE_REFRESH = 0.5

#: Lookup clients attached to the relay, and seconds between each
#: one's lookups.
N_CLIENTS = 2
LOOKUP_INTERVAL = 0.1

#: Seconds after the handoff starts whose lookups count as in-window.
WINDOW = 6.0

#: The scale a run has unless a ``delegation`` spec says otherwise:
#: bulk services (the delegated vspace), anchor services (the kept
#: one) and seconds of lookup traffic.
N_BULK = 24
N_ANCHOR = 6
TRAFFIC = 14.0


@dataclass
class DelegationReport:
    """What one delegation-under-fire run observed, end to end."""

    seed: int
    two_phase: bool
    crash_role: Optional[str]
    crash_phase: Optional[str]
    #: virtual timestamps (-1.0 when the event never happened)
    handoff_started_at: float
    crash_at: float
    restarted_at: float
    #: aggregated resolver delegation counters (final incarnations)
    delegations_started: int
    delegations_committed: int
    delegations_aborted: int
    delegations_adopted: int
    delegation_rollbacks: int
    delegate_records_sent: int
    delegate_records_received: int
    delegate_stale_dropped: int
    #: all lookup traffic over the run
    requests_attempted: int
    requests_succeeded: int
    success_rate: float
    #: lookups issued inside the handoff window — the dual-serving
    #: guarantee is measured here
    window_requests: int
    window_succeeded: int
    window_success_rate: float
    #: delegated-vspace records missing after convergence (must be 0
    #: with the two-phase protocol; the ablation's headline loss)
    lost_records: int
    #: live resolvers routing the delegated vspace after convergence
    authority: Tuple[str, ...]
    always_violations: Tuple[str, ...]
    converged_violations: Tuple[str, ...]
    invariant_samples: int
    sim_time: float


def delegation_chaos_config(two_phase: bool = True) -> InrConfig:
    """Fast chaos clocks plus the load-balancing and handoff knobs.

    The delegate threshold sits well under the sustained advertisement
    rate the scenario generates, so the donor is in genuine update
    overload the whole run; the spawn threshold is parked out of reach
    so the delegation path is exercised in isolation. Handoff timers
    are scaled to the fast clocks, and the chunk size forces a
    multi-chunk transfer so mid-transfer crashes have a mid-transfer
    to hit.
    """
    config = fast_chaos_config()
    return replace(
        config,
        enable_load_balancing=True,
        spawn_lookup_rate=1e9,
        delegate_update_rate=30.0,
        terminate_lookup_rate=5.0,
        load_check_interval=0.5,
        minimum_lifetime=2.0,
        delegation_two_phase=two_phase,
        delegation_timeout=0.3,
        delegation_chunk_names=8,
        delegation_retry_cooldown=1.0,
    )


class _HandoffWatch:
    """Deterministic fine-grained poller: detects the handoff start,
    fires the seeded crash at the target phase, and schedules the
    restart. Polls every millisecond of virtual time until the crash
    has fired, which is cheap in the event simulator and catches even
    RTT-short phases like OFFER."""

    POLL = 0.001

    def __init__(
        self,
        domain: InsDomain,
        donor,
        two_phase: bool,
        crash_role: Optional[str],
        crash_phase: Optional[str],
        restart_after: Optional[float],
    ) -> None:
        self.domain = domain
        self.donor = donor
        self.two_phase = two_phase
        self.crash_role = crash_role
        self.crash_phase = crash_phase
        self.restart_after = restart_after
        self.handoff_started_at: Optional[float] = None
        self.recipient_address: Optional[str] = None
        self.crash_at: Optional[float] = None
        self.restarted_at: Optional[float] = None
        self._victim = None
        self._running = True
        domain.sim.schedule(self.POLL, self._tick)

    def stop(self) -> None:
        self._running = False

    # -- polling -------------------------------------------------------
    def _tick(self) -> None:
        if not self._running:
            return
        self._observe()
        done_crashing = self.crash_role is None or self.crash_at is not None
        if self.handoff_started_at is not None and done_crashing:
            return  # nothing left to detect; stop burning events
        self.domain.sim.schedule(self.POLL, self._tick)

    def _observe(self) -> None:
        now = self.domain.sim.now
        donor = self.donor
        if self.two_phase:
            handoff = None if donor.terminated else donor.delegation.donor
            if handoff is not None:
                if self.handoff_started_at is None:
                    self.handoff_started_at = now
                self.recipient_address = handoff.recipient
        elif self.handoff_started_at is None and not donor.terminated:
            if DELEGATED_VSPACE not in donor.trees:
                # Single-shot ablation: the tree is already gone; the
                # one unacked batch is on the wire right now.
                self.handoff_started_at = now
                self.recipient_address = next(
                    (
                        inr.address
                        for inr in self.domain.inrs
                        if inr.was_spawned
                    ),
                    None,
                )
        if self.crash_role is None or self.crash_at is not None:
            return
        if self._phase_reached():
            self._fire_crash(now)

    def _phase_reached(self) -> bool:
        if not self.two_phase:
            return self.handoff_started_at is not None
        handoff = None if self.donor.terminated else self.donor.delegation.donor
        if self.crash_phase == "committed":
            recipient = self._recipient()
            if recipient is None or recipient.terminated:
                return False
            return any(
                h.phase == "committed"
                for h in recipient.delegation.recipients.values()
            )
        if handoff is None:
            return False
        if self.crash_phase == "offer":
            return handoff.phase == "offer"
        if self.crash_phase == "transfer":
            return handoff.phase == "transfer" and handoff.chunks_acked >= 1
        if self.crash_phase == "await-commit":
            return handoff.phase == "await-commit"
        return False

    def _recipient(self):
        if self.recipient_address is None:
            return None
        return self.domain.inr_at(self.recipient_address)

    # -- crash / restart -----------------------------------------------
    def _fire_crash(self, now: float) -> None:
        victim = self.donor if self.crash_role == "donor" else self._recipient()
        if victim is None or victim.terminated:
            return
        victim.crash()
        self._victim = victim
        self.crash_at = now
        if self.restart_after is not None:
            self.domain.sim.schedule(self.restart_after, self._restart)

    def _restart(self) -> None:
        victim = self._victim
        if victim is not None and victim.terminated:
            victim.restart()
            self.restarted_at = self.domain.sim.now


def run_delegation_scenario(
    seed: int,
    n_bulk: int,
    n_anchor: int,
    traffic: float,
    two_phase: bool = True,
    crash_role: Optional[str] = None,
    crash_phase: Optional[str] = None,
    restart_after: Optional[float] = 1.5,
    observe: bool = False,
) -> WorkloadResult:
    """One delegation-under-fire run.

    Topology: a relay resolver (``inr-base``) that clients attach to,
    and a donor (``inr-donor``) routing two vspaces — a small anchor
    space it keeps and a large bulk space whose sustained advertisement
    stream pushes it over the delegate threshold. Two spare candidate
    nodes give the donor somewhere to hand off to, with one left over
    so an aborted handoff can retry onto fresh hardware while the
    abandoned recipient drains back into the pool.

    ``crash_role``/``crash_phase`` seed one crash at the named phase of
    the first handoff (see :data:`CRASH_PHASES`); the crashed process
    restarts ``restart_after`` virtual seconds later — within the
    recipient's COMMIT-retransmission budget, so the two-generals
    reconciliation paths are actually exercised. ``None``/``None`` is
    the fault-free baseline.

    ``observe=True`` attaches an :class:`repro.obs.ObsCollector`, and
    the harvested collector is the result's ``collector``. The result's
    ``report`` detail is the :class:`DelegationReport`; its metrics are
    the ``delegation`` workload's.
    """
    domain = chaos_domain(
        seed, delegation_chaos_config(two_phase), observe=observe,
        sweep_floor=0.25,
    )
    base = domain.add_inr(address="inr-base")
    donor = domain.add_inr(
        address="inr-donor", vspaces=(KEPT_VSPACE, DELEGATED_VSPACE)
    )
    for index in range(2):
        domain.add_candidate(f"spare-{index}")
    for index in range(n_anchor):
        domain.add_service(
            f"[service=anchor[id=a{index}]][vspace={KEPT_VSPACE}]",
            resolver=donor,
            refresh_interval=SERVICE_REFRESH,
        )
    for index in range(n_bulk):
        domain.add_service(
            f"[service=bulk[id=n{index}]][vspace={DELEGATED_VSPACE}]",
            resolver=donor,
            refresh_interval=SERVICE_REFRESH,
        )
    clients = [
        domain.add_client(resolver=base, retry_policy=CHAOS_RETRY_POLICY)
        for _ in range(N_CLIENTS)
    ]

    checker = InvariantChecker(domain).install(0.5)
    watch = _HandoffWatch(
        domain, donor, two_phase, crash_role, crash_phase, restart_after
    )

    # ------------------------------------------------------------------
    # Steady lookup traffic against the vspace being handed off,
    # scheduled up front (deterministic). Lookups start before the
    # overload trips the delegation, so the handoff window always has
    # traffic inside it.
    # ------------------------------------------------------------------
    query = NameSpecifier.parse(
        f"[service=bulk][vspace={DELEGATED_VSPACE}]"
    )
    samples: List[dict] = []

    def issue(client_index: int) -> None:
        client = clients[client_index]
        sample = {"issued_at": domain.sim.now, "reply": None}
        samples.append(sample)
        try:
            sample["reply"] = client.resolve_early(query)
        except RuntimeError:
            return  # mid-failover with no resolver selected

    start = domain.sim.now
    for client_index in range(N_CLIENTS):
        t = 0.1 + (client_index / N_CLIENTS) * LOOKUP_INTERVAL
        while t < traffic:
            domain.sim.at(start + t, issue, client_index)
            t += LOOKUP_INTERVAL

    domain.run(traffic)
    watch.stop()
    # Drain in-flight retries, then run out the convergence bound so
    # the post-fault invariants are meaningful.
    domain.run(CHAOS_RETRY_POLICY.deadline + 1.0)
    domain.run(checker.convergence_bound())
    checker.uninstall()

    converged = (
        checker.check_converged()
        + checker.single_vspace_authority((KEPT_VSPACE, DELEGATED_VSPACE))
        + checker.delegations_settled()
    )

    # ------------------------------------------------------------------
    # Tally lookups, overall and inside the handoff window.
    # ------------------------------------------------------------------
    def succeeded(sample: dict) -> bool:
        reply = sample["reply"]
        return reply is not None and reply.done and bool(reply.value)

    attempted = len(samples)
    ok = sum(1 for sample in samples if succeeded(sample))
    window_start = watch.handoff_started_at
    if window_start is None:
        in_window: List[dict] = []
    else:
        in_window = [
            sample
            for sample in samples
            if window_start <= sample["issued_at"] <= window_start + WINDOW
        ]
    window_ok = sum(1 for sample in in_window if succeeded(sample))

    # ------------------------------------------------------------------
    # Record loss: every live bulk service's announcer must be present
    # in some live resolver's bulk tree after convergence.
    # ------------------------------------------------------------------
    expected = checker._expected_names().get(DELEGATED_VSPACE, set())
    present = set()
    for inr in domain.live_inrs:
        tree = inr.trees.get(DELEGATED_VSPACE)
        if tree is None:
            continue
        present |= {record.announcer for record in tree.records()}
    lost = len(expected - present)
    authority = tuple(
        sorted(
            inr.address
            for inr in domain.live_inrs
            if inr.routes_vspace(DELEGATED_VSPACE)
        )
    )

    def stamp(value: Optional[float]) -> float:
        return -1.0 if value is None else value

    report = DelegationReport(
        seed=seed,
        two_phase=two_phase,
        crash_role=crash_role,
        crash_phase=crash_phase,
        handoff_started_at=stamp(watch.handoff_started_at),
        crash_at=stamp(watch.crash_at),
        restarted_at=stamp(watch.restarted_at),
        **summed_counters(
            domain.inrs,
            "delegations_started",
            "delegations_committed",
            "delegations_aborted",
            "delegations_adopted",
            "delegation_rollbacks",
            "delegate_records_sent",
            "delegate_records_received",
            "delegate_stale_dropped",
        ),
        requests_attempted=attempted,
        requests_succeeded=ok,
        success_rate=ok / attempted if attempted else 0.0,
        window_requests=len(in_window),
        window_succeeded=window_ok,
        window_success_rate=window_ok / len(in_window) if in_window else 0.0,
        lost_records=lost,
        authority=authority,
        always_violations=tuple(
            violation.invariant for violation in checker.violations
        ),
        converged_violations=tuple(
            violation.invariant for violation in converged
        ),
        invariant_samples=checker.samples_taken,
        sim_time=domain.now,
    )
    metrics = report_metrics(report, (
        "window_success_rate",
        "success_rate",
        "lost_records",
        "delegations_started",
        "delegations_committed",
        "delegations_aborted",
        "delegation_rollbacks",
        "requests_attempted",
        "requests_succeeded",
        "window_requests",
        "window_succeeded",
    ))
    metrics["authority_count"] = float(len(report.authority))
    metrics["converged_violations"] = float(len(report.converged_violations))
    return WorkloadResult(
        metrics=metrics, details={"report": report}, collector=domain.harvest()
    )


def run_delegation_ablation(
    seed: int,
    delegation_two_phase: bool,
    n_bulk: int = N_BULK,
    n_anchor: int = N_ANCHOR,
    traffic: float = TRAFFIC,
) -> WorkloadResult:
    """The controlled comparison ``BENCH_delegation.json`` leads with: a
    recipient crash with no operator restart. Two-phase is killed
    mid-TRANSFER (the worst moment that protocol can be hit);
    single-shot is killed right after its one unacknowledged batch —
    the moment that *exists* for it and orphans the vspace. (A prompt
    operator restart plus client retries can mask the single-shot
    loss, which is why nothing restarts.)"""
    return run_delegation_scenario(
        seed,
        n_bulk,
        n_anchor,
        traffic,
        two_phase=delegation_two_phase,
        crash_role="recipient",
        crash_phase="transfer" if delegation_two_phase else "post-transfer",
        restart_after=None,
    )


def _ablation_tables(run: SpecRun, family: List[SpecRun]) -> List[Output]:
    if "delegation_two_phase" not in run.ablations:
        return []
    on = run.baseline.details["report"]
    off = run.ablations["delegation_two_phase"].details["report"]
    return [(
        "Delegation ablation: recipient crash, no operator restart "
        "(two-phase vs single-shot transfer)",
        ["mode", "window ok", "overall ok", "lost records", "authority",
         "converged violations"],
        [
            (
                label,
                f"{report.window_success_rate:.3f}",
                f"{report.success_rate:.3f}",
                f"{report.lost_records}",
                ",".join(report.authority) or "(none)",
                ",".join(sorted(set(report.converged_violations))) or "-",
            )
            for label, report in (("two-phase", on), ("single-shot", off))
        ],
    )]


register_workload(Workload(
    id="delegation",
    description=(
        "vspace handoff under update overload with a recipient crash "
        "and no operator restart; two-phase vs single-shot transfer"
    ),
    toggles=("delegation_two_phase",),
    primary_metrics={
        "delegation_two_phase": ("window_success_rate", "higher"),
    },
    run=run_delegation_ablation,
    suite_tables=_ablation_tables,
))


def run_delegation_matrix(seed: int) -> WorkloadResult:
    """The full crash matrix: a fault-free traced baseline plus one run
    per (role, phase) combination — donor and recipient each crashed at
    every handoff phase and restarted. Every run must converge to
    exactly one authoritative resolver per vspace with zero lost
    records; tier-1 asserts exactly that on the committed
    ``BENCH_delegation.json``, and CI on seeds 1-12."""
    runs = [
        run_delegation_scenario(seed, N_BULK, N_ANCHOR, TRAFFIC, observe=True)
    ]
    for role in CRASH_ROLES:
        for phase in CRASH_PHASES:
            runs.append(
                run_delegation_scenario(
                    seed,
                    N_BULK,
                    N_ANCHOR,
                    TRAFFIC,
                    crash_role=role,
                    crash_phase=phase,
                )
            )
    reports = [run.details["report"] for run in runs]
    crashed = [report for report in reports if report.crash_role is not None]
    return WorkloadResult(
        metrics={
            "runs": float(len(reports)),
            "crashes_fired": float(
                sum(report.crash_at > 0.0 for report in crashed)
            ),
            "lost_records": float(sum(report.lost_records for report in reports)),
            "single_authority_runs": float(
                sum(len(report.authority) == 1 for report in reports)
            ),
            "converged_violations": float(
                sum(len(report.converged_violations) for report in reports)
            ),
            "min_window_success_rate": min(
                report.window_success_rate for report in reports
            ),
        },
        details={"reports": reports},
        collector=runs[0].collector,
    )


def _label(report: DelegationReport) -> str:
    return f"{report.crash_role or 'baseline'}:{report.crash_phase or '-'}"


def bench_delegation_payload(matrix_run: SpecRun, ablation_run: SpecRun) -> dict:
    """The ``BENCH_delegation.json`` payload: the crash matrix of a
    ``delegation-matrix`` run and the two-phase vs single-shot ablation
    of a ``delegation`` run (baseline arm two-phase,
    ``delegation_two_phase`` arm single-shot).

    The traced baseline of the matrix contributes an ``observability``
    section — drop attribution and per-hop span percentiles.
    """
    matrix = matrix_run.baseline.details["reports"]
    on: DelegationReport = ablation_run.baseline.details["report"]
    off: DelegationReport = ablation_run.ablations[
        "delegation_two_phase"
    ].details["report"]
    payload = {
        "benchmark": "delegation-chaos",
        "schema_version": 1,
        "matrix": [asdict(report) for report in matrix],
        "ablation": {
            "two_phase": asdict(on),
            "ablated": asdict(off),
            "window_success_delta": round(
                on.window_success_rate - off.window_success_rate, 6
            ),
            "lost_records_delta": off.lost_records - on.lost_records,
        },
    }
    add_observability(payload, [(_label(matrix[0]), matrix_run.baseline)])
    return payload


def _matrix_outputs(run: SpecRun, family: List[SpecRun]) -> List[Output]:
    """The crash-matrix table; the family's run adds
    ``BENCH_delegation.json``, which folds the matrix with a
    ``delegation`` spec's two-phase vs single-shot ablation."""
    matrix = run.baseline.details["reports"]
    outputs: List[Output] = []
    if family:
        _, ablation = family
        traced = run.baseline.collector
        outputs = [
            ("BENCH_delegation.json", bench_delegation_payload(run, ablation)),
            ("BENCH_delegation_spans.jsonl",
             spans_to_jsonl(traced.tracer.spans)),
            ("BENCH_delegation_metrics.json", traced.metrics_snapshot()),
        ]
    return outputs + [
        (
            "Delegation under fire: two-phase handoff crash matrix "
            "(sustained update overload; crash + restart at each phase)",
            ["crash", "phase", "handoffs", "committed", "aborted",
             "rollbacks", "window ok", "overall ok", "lost", "authority"],
            [
                (
                    report.crash_role or "none",
                    report.crash_phase or "-",
                    f"{report.delegations_started}",
                    f"{report.delegations_committed}",
                    f"{report.delegations_aborted}",
                    f"{report.delegation_rollbacks}",
                    f"{report.window_success_rate:.3f}",
                    f"{report.success_rate:.3f}",
                    f"{report.lost_records}",
                    ",".join(report.authority),
                )
                for report in matrix
            ],
        ),
    ]


register_workload(Workload(
    id="delegation-matrix",
    description=(
        "the two-phase handoff with donor and recipient each crashed "
        "and restarted at every phase, plus a fault-free traced run"
    ),
    run=run_delegation_matrix,
    suite_tables=_matrix_outputs,
))
