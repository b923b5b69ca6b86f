"""Disruption tolerance under chaos: custody on vs off.

The availability scenario (:mod:`.availability`) measures what request
traffic experiences when faults are short next to the request deadline
— retries and failover can ride them out. This module measures the
regime the resilience layer cannot help with: duty-cycled links and
partitions that outlast any reasonable deadline. Late-binding anycast
payloads sent into a partition are simply gone unless *something*
holds them; the custody store (:mod:`repro.resolver.custody`) is that
something, and this scenario quantifies exactly what it buys.

One client streams intentional anycast payloads at a service whose
resolver first suffers duty-cycled overlay links (intermittent
connectivity) and then a long partition, all from a seed-deterministic
:class:`FaultPlan`. Each payload carries its sequence number and
virtual send time, so the receiving service measures end-to-end
delivery ratio and latency — including payloads that waited out the
partition in custody. Running the identical plan with custody enabled
and disabled is a controlled ablation of the DTN machinery alone.

This is the ``dtn`` workload, with arms ``custody`` and
``obs_tracing``. The sweep over disruption lengths is one ``dtn`` spec
per length (baseline custody on, ``custody`` arm off);
:func:`bench_dtn_payload` folds those runs into ``BENCH_dtn.json`` for
trend tracking across sessions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ...chaos import ChaosController, FaultEvent, FaultPlan, InvariantChecker
from ...chaos.scenario import chaos_domain, fast_chaos_config
from ...experiments.domain import DSR_HOST
from ...naming import NameSpecifier
from ...obs import spans_to_jsonl
from ...resolver import InrConfig
from ..runner import Output, SpecRun, Workload, WorkloadResult, register_workload
from . import add_observability, report_metrics, summed_counters


@dataclass
class DtnReport:
    """What one disruption run delivered, end to end."""

    seed: int
    custody: bool
    disruption: float
    messages_sent: int
    #: unique payloads that reached the service (dedup by sequence)
    messages_delivered: int
    delivery_ratio: float
    #: end-to-end virtual seconds, send to first delivery; payloads
    #: that waited out the partition in custody dominate the tail
    latency_p50: float
    latency_p99: float
    latency_max: float
    #: aggregated resolver custody counters
    custody_accepted: int
    custody_released: int
    drops_custody_expired: int
    drops_custody_evicted: int
    #: the paper's drop behavior — what custody exists to avoid
    drops_no_route: int
    #: post-heal convergence invariants (must be empty; includes the
    #: custody-drained invariant when custody is on)
    converged_violations: Tuple[str, ...]
    faults_applied: int
    fault_kinds: Tuple[str, ...]
    sim_time: float


def dtn_chaos_config(disruption: float, custody: bool) -> InrConfig:
    """The fast chaos clocks plus the DTN knobs for one run.

    The custody TTL must outlast the partition plus reconvergence or
    payloads lapse moments before they could have been delivered.
    """
    config = fast_chaos_config()
    if not custody:
        return config
    return replace(
        config,
        enable_custody=True,
        custody_ttl=disruption + 20.0,
        custody_suspect_silence=2.5,
    )


#: Seconds between the client's anycast payloads.
SEND_INTERVAL = 0.5

#: Seconds traffic keeps flowing after the partition heals.
TAIL = 3.0


def run_dtn_scenario(
    seed: int,
    custody: bool,
    obs_tracing: bool,
    disruption: float = 30.0,
    duty_window: float = 12.0,
) -> WorkloadResult:
    """Stream anycast payloads through duty-cycled links and one long
    partition; measure what arrived.

    The domain is a three-resolver mesh: the client attaches to the
    first, the service to the last. The fault plan is identical for
    both settings of ``custody`` (same seed, same surface): first every
    link incident to the service's resolver duty-cycles for
    ``duty_window`` seconds (up half of each 6 s period: radio-style
    intermittent connectivity), then that resolver and its service are
    partitioned from the rest of the mesh — and the DSR — for
    ``disruption`` seconds. Traffic runs from the start until ``TAIL``
    seconds after the heal; the run then drains for the invariant
    checker's convergence bound so every custodied payload has settled
    (released or lapsed) before the post-heal invariants are checked.

    ``obs_tracing`` attaches a :class:`repro.obs.ObsCollector` before
    any traffic flows; the harvested collector is the result's
    ``collector``. The result's ``report`` detail is the
    :class:`DtnReport`.
    """
    domain = chaos_domain(
        seed, dtn_chaos_config(disruption, custody), observe=obs_tracing
    )
    inrs = [domain.add_inr() for _ in range(3)]
    far = inrs[-1]
    name = NameSpecifier.parse("[service=dtn[role=sink]]")
    service = domain.add_service(name, resolver=far)
    client = domain.add_client(resolver=inrs[0])
    domain.run(3.0)

    # ------------------------------------------------------------------
    # The receiving side: dedup by sequence, latency from the virtual
    # send time each payload carries.
    # ------------------------------------------------------------------
    delivered: Dict[int, float] = {}

    def on_message(message, _source) -> None:
        sequence_text, _, sent_text = message.data.decode().partition(":")
        sequence = int(sequence_text)
        if sequence not in delivered:
            delivered[sequence] = domain.sim.now - float(sent_text)

    service.on_message(on_message)

    # ------------------------------------------------------------------
    # Fault plan: duty-cycled links incident to the far resolver, then
    # a long partition cutting it (and its service) off from the rest
    # of the mesh and the DSR. Duty cycles end before the partition
    # starts so a scheduled link-up never re-opens a cut link.
    # ------------------------------------------------------------------
    far_links = sorted(
        tuple(sorted((far.address, neighbor)))
        for neighbor in far.neighbors.addresses
    )
    duty_start = 1.0
    partition_at = duty_start + duty_window + 2.0
    heal_at = partition_at + disruption
    isolated = (far.address, service.address)
    others = tuple(
        sorted(
            [inr.address for inr in inrs if inr is not far]
            + [client.address, DSR_HOST]
        )
    )
    duty_plan = FaultPlan.duty_cycle(
        seed=seed,
        link_pairs=far_links,
        start=duty_start,
        end=duty_start + duty_window,
        period=6.0,
    )
    plan = FaultPlan(
        events=FaultPlan.build(
            list(duty_plan.events)
            + [
                FaultEvent(at=partition_at, kind="partition", target=(isolated, others)),
                FaultEvent(at=heal_at, kind="heal", target=(isolated, others)),
            ]
        ).events,
        duration=heal_at + TAIL,
    )
    controller = ChaosController(domain)
    controller.execute(plan)

    # ------------------------------------------------------------------
    # Steady anycast traffic, scheduled up front (deterministic).
    # ------------------------------------------------------------------
    sent = 0

    def send(sequence: int) -> None:
        client.send_anycast(
            name, data=f"{sequence}:{domain.sim.now:.6f}".encode()
        )

    start = domain.sim.now
    traffic_end = heal_at + TAIL
    t = 0.0
    while t < traffic_end:
        domain.sim.at(start + t, send, sent)
        sent += 1
        t += SEND_INTERVAL

    domain.run(traffic_end)

    # Drain: every custodied payload must settle — released once the
    # healed mesh re-learns the name, or lapsed by its TTL — before the
    # post-heal convergence invariants are checked.
    checker = InvariantChecker(domain)
    domain.run(checker.convergence_bound())
    converged = checker.check_converged()

    latencies = sorted(delivered.values())

    def latency_at(fraction: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(fraction * (len(latencies) - 1)))
        return latencies[index]

    report = DtnReport(
        seed=seed,
        custody=custody,
        disruption=disruption,
        messages_sent=sent,
        messages_delivered=len(delivered),
        delivery_ratio=len(delivered) / sent if sent else 0.0,
        latency_p50=latency_at(0.50),
        latency_p99=latency_at(0.99),
        latency_max=latencies[-1] if latencies else 0.0,
        **summed_counters(
            domain.inrs,
            "custody_accepted",
            "custody_released",
            "drops_custody_expired",
            "drops_custody_evicted",
            "drops_no_route",
        ),
        converged_violations=tuple(
            violation.invariant for violation in converged
        ),
        faults_applied=len(controller.applied),
        fault_kinds=plan.kinds,
        sim_time=domain.now,
    )
    metrics = report_metrics(report, (
        "delivery_ratio",
        "messages_sent",
        "messages_delivered",
        "latency_p50",
        "latency_p99",
        "latency_max",
        "custody_accepted",
        "custody_released",
        "drops_custody_expired",
        "drops_custody_evicted",
        "drops_no_route",
    ))
    metrics["converged_violations"] = float(len(report.converged_violations))
    return WorkloadResult(
        metrics=metrics, details={"report": report}, collector=domain.harvest()
    )


def bench_dtn_payload(runs: Sequence[SpecRun]) -> dict:
    """The ``BENCH_dtn.json`` payload: delivery ratio and latency vs
    disruption length, custody on vs off.

    ``runs`` are executed ``dtn`` specs, one per disruption length: the
    baseline arm is the custody-on report, the ``custody`` arm the
    custody-off one. A traced custody-on run contributes an
    ``observability`` section keyed by its disruption length — drop
    attribution and per-hop percentiles.
    """
    pairs = [
        (
            run.baseline.details["report"],
            run.ablations["custody"].details["report"],
        )
        for run in runs
    ]
    payload = {
        "benchmark": "dtn-chaos",
        "schema_version": 1,
        "rows": [
            {
                "disruption": on.disruption,
                "custody_on": asdict(on),
                "custody_off": asdict(off),
                "delivery_ratio_delta": round(
                    on.delivery_ratio - off.delivery_ratio, 6
                ),
            }
            for on, off in pairs
        ],
    }
    add_observability(
        payload,
        ((str(on.disruption), run.baseline) for run, (on, _) in zip(runs, pairs)),
    )
    return payload


def _dtn_outputs(run: SpecRun, family: List[SpecRun]) -> List[Output]:
    """``BENCH_dtn.json`` over a sweep of disruption lengths, with the
    first (traced) run's span and metrics files and the table."""
    if not family:
        return []
    traced = run.baseline.collector
    return [
        ("BENCH_dtn.json", bench_dtn_payload(family)),
        ("BENCH_dtn_spans.jsonl", spans_to_jsonl(traced.tracer.spans)),
        ("BENCH_dtn_metrics.json", traced.metrics_snapshot()),
        (
            "DTN: custody transfer on vs off "
            "(duty-cycled links + partition isolating the service's INR)",
            ["disruption (s)", "custody", "sent", "delivered", "ratio",
             "p50 (s)", "max (s)", "accepted", "released", "lapsed"],
            [
                (
                    f"{report.disruption:.0f}",
                    "on" if report.custody else "off",
                    f"{report.messages_sent}",
                    f"{report.messages_delivered}",
                    f"{report.delivery_ratio:.3f}",
                    f"{report.latency_p50:.3f}",
                    f"{report.latency_max:.3f}",
                    f"{report.custody_accepted}",
                    f"{report.custody_released}",
                    f"{report.drops_custody_expired}",
                )
                for spec_run in family
                for report in (
                    spec_run.baseline.details["report"],
                    spec_run.ablations["custody"].details["report"],
                )
            ],
        ),
    ]


register_workload(Workload(
    id="dtn",
    description=(
        "late-binding anycast through duty-cycled links and a long "
        "partition; custody store-and-forward vs drop-at-no-route"
    ),
    toggles=("custody", "obs_tracing"),
    primary_metrics={
        "custody": ("delivery_ratio", "higher"),
        "obs_tracing": ("delivery_ratio", "higher"),
    },
    run=run_dtn_scenario,
    suite_tables=_dtn_outputs,
))
