"""End-to-end request availability under chaos: resilience on vs off.

The chaos harness (:mod:`repro.chaos`) proves the *resolver mesh* heals;
this module closes the loop at the *client*: it drives steady
early-binding lookup traffic from a set of clients through a seeded
fault plan (INR crashes with restarts, lossy links, a partition, CPU
overload) and measures what the application actually experienced —
request success rate, tail latency, and how many ``Reply`` objects were
left permanently hanging. Running the same plan with the client
resilience layer (retries, deadlines, failover) enabled versus disabled
quantifies exactly what the request-resilience machinery buys.

This is the ``availability`` workload, with arms ``resilience`` and
``obs_tracing``. Its ``availability-chaos`` spec folds the on/off
comparison into ``BENCH_availability.json``
(:func:`bench_availability_payload`) with the traced run's span,
Chrome-trace and metrics files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from ...chaos import ChaosController, FaultEvent, FaultPlan, RecoveryTracker, percentile
from ...chaos.scenario import chaos_domain, fast_chaos_config, fault_surface
from ...client import RetryPolicy
from ...experiments.domain import DSR_HOST
from ...naming import NameSpecifier
from ...obs import spans_to_jsonl, to_chrome_trace
from ..runner import Output, SpecRun, Workload, WorkloadResult, register_workload
from . import add_observability, report_metrics, summed_counters


@dataclass
class AvailabilityReport:
    """What steady lookup traffic experienced during one chaos run."""

    seed: int
    resilience: bool
    requests_attempted: int
    #: resolved with at least one binding — the user-visible success
    requests_succeeded: int
    #: resolved, but with an empty binding list (stale/partitioned INR)
    requests_empty: int
    #: failed explicitly (timeout or deadline via the Reply error path)
    requests_failed: int
    #: never settled — the hangs the resilience layer exists to prevent
    requests_hung: int
    success_rate: float
    latency_p50: float
    latency_p99: float
    #: aggregated client resilience counters
    retries: int
    failovers: int
    deadline_exceeded: int
    faults_applied: int
    fault_kinds: Tuple[str, ...]
    mttr: Dict[str, Dict[str, float]]
    sim_time: float


#: Retry policy scaled to the fast chaos clocks (requests resolve in
#: milliseconds; soft state heals in seconds).
CHAOS_RETRY_POLICY = RetryPolicy(request_timeout=0.4, backoff_max=2.0, deadline=5.0)


#: The domain every availability run drives: resolvers, services
#: (round-robined over the resolvers) and lookup clients.
N_INRS = 4
N_SERVICES = 3
N_CLIENTS = 3


def run_availability_scenario(
    seed: int,
    resilience: bool,
    obs_tracing: bool,
    duration: float = 30.0,
    lookup_interval: float = 0.5,
) -> WorkloadResult:
    """Run steady lookup traffic through a seeded fault plan.

    ``resilience`` toggles the client's retries, deadlines and
    failover. The fault plan itself is identical for both settings
    (same seed, same surface), so the pair of runs is a controlled
    ablation of the resilience machinery alone: about a third of the
    resolvers crash and restart, half the request-path links turn
    lossy, a third of the resolvers' CPUs degrade, and one resolver is
    partitioned from the rest of the mesh for the middle of the run.

    ``obs_tracing`` attaches a :class:`repro.obs.ObsCollector` before
    any traffic flows: every lookup then produces a hop-by-hop span
    tree, and the harvested collector is the result's ``collector``.
    The result's ``report`` detail is the :class:`AvailabilityReport`.
    """
    policy = CHAOS_RETRY_POLICY if resilience else RetryPolicy.disabled()

    domain = chaos_domain(seed, fast_chaos_config(), observe=obs_tracing)
    inrs = [domain.add_inr() for _ in range(N_INRS)]
    names = [
        NameSpecifier.parse(f"[service=avail[id={index}]]")
        for index in range(N_SERVICES)
    ]
    for index, name in enumerate(names):
        domain.add_service(name, resolver=inrs[index % N_INRS])
    clients = [
        domain.add_client(resolver=inrs[index % N_INRS], retry_policy=policy)
        for index in range(N_CLIENTS)
    ]
    domain.run(3.0)

    plan = FaultPlan.random(
        seed=seed,
        inr_addresses=[inr.address for inr in inrs],
        # the full request path, so lookups actually traverse faulty links
        link_pairs=fault_surface(domain, domain.services + domain.clients),
        duration=duration,
        crash_fraction=0.35,
        flap_fraction=0.0,
        restart_after=6.0,
        link_fault_fraction=0.5,
        loss_rate=0.25,
        duplicate_rate=0.05,
        reorder_rate=0.05,
        cpu_degrade_fraction=0.3,
        cpu_degrade_factor=0.02,
        cpu_degrade_length=duration * 0.25,
    )
    # Cut one resolver off from the rest of the mesh (and the DSR) for
    # the middle third of the run; its directly-attached services stay
    # reachable, everything else on it goes stale.
    isolated = inrs[N_INRS // 2].address
    others = [inr.address for inr in inrs if inr.address != isolated]
    groups = ((isolated,), tuple(others) + (DSR_HOST,))
    plan = FaultPlan(
        events=FaultPlan.build(
            list(plan.events)
            + [
                FaultEvent(at=duration * 0.35, kind="partition", target=groups),
                FaultEvent(at=duration * 0.55, kind="heal", target=groups),
            ]
        ).events,
        duration=duration,
    )

    tracker = RecoveryTracker(domain, poll_interval=0.25)
    controller = ChaosController(domain, tracker=tracker)
    controller.execute(plan)

    # ------------------------------------------------------------------
    # Steady lookup traffic, scheduled up front (deterministic).
    # ------------------------------------------------------------------
    outstanding: List[dict] = []

    def issue(client_index: int, name: NameSpecifier) -> None:
        client = clients[client_index]
        sample = {"issued_at": domain.sim.now, "reply": None, "settled_at": None}
        outstanding.append(sample)
        try:
            reply = client.resolve_early(name)
        except RuntimeError:
            # Mid-failover with no resolver selected yet: in
            # fire-and-forget mode this request simply never happens.
            sample["reply"] = None
            return
        sample["reply"] = reply

        def settled(_result, sample=sample):
            sample["settled_at"] = domain.sim.now

        reply.then(settled)
        reply.on_error(settled)

    start = domain.sim.now
    request_index = 0
    for client_index in range(N_CLIENTS):
        offset = (client_index / N_CLIENTS) * lookup_interval
        t = offset
        while t < duration:
            name = names[request_index % len(names)]
            domain.sim.at(start + t, issue, client_index, name)
            request_index += 1
            t += lookup_interval

    domain.run(duration)
    # Drain: let in-flight retries hit their deadlines and settle.
    domain.run((policy.deadline if policy.enabled else 0.0) + 3.0)
    tracker.stop()

    # ------------------------------------------------------------------
    # Tally what the application saw.
    # ------------------------------------------------------------------
    succeeded = empty = failed = hung = 0
    latencies: List[float] = []
    for sample in outstanding:
        reply = sample["reply"]
        if reply is None:
            failed += 1
        elif reply.done:
            if reply.value:
                succeeded += 1
                latencies.append(sample["settled_at"] - sample["issued_at"])
            else:
                empty += 1
        elif reply.failed:
            failed += 1
        else:
            hung += 1
    attempted = len(outstanding)

    report = AvailabilityReport(
        seed=seed,
        resilience=resilience,
        requests_attempted=attempted,
        requests_succeeded=succeeded,
        requests_empty=empty,
        requests_failed=failed,
        requests_hung=hung,
        success_rate=succeeded / attempted if attempted else 0.0,
        latency_p50=percentile(latencies, 0.50) if latencies else float("nan"),
        latency_p99=percentile(latencies, 0.99) if latencies else float("nan"),
        **summed_counters(clients, "retries", "failovers", "deadline_exceeded"),
        faults_applied=len(controller.applied),
        fault_kinds=plan.kinds,
        mttr=tracker.mttr_summary(),
        sim_time=domain.now,
    )
    return WorkloadResult(
        metrics=report_metrics(report, (
            "success_rate",
            "requests_attempted",
            "requests_succeeded",
            "requests_empty",
            "requests_failed",
            "requests_hung",
            "latency_p50",
            "latency_p99",
            "retries",
            "failovers",
            "deadline_exceeded",
        )),
        details={"report": report},
        collector=domain.harvest(),
    )


def bench_availability_payload(run: SpecRun) -> dict:
    """The ``BENCH_availability.json`` payload: the on/off availability
    comparison of an ``availability`` run (baseline resilient, the
    ``resilience`` arm bare) as a machine-readable artifact.

    A traced arm contributes an ``observability`` section — per-hop
    latency percentiles, drop attribution, and the full metrics
    snapshot.
    """
    on, off = run.baseline, run.ablations["resilience"]
    resilience_on = on.details["report"]
    resilience_off = off.details["report"]
    payload = {
        "benchmark": "availability-chaos",
        "schema_version": 1,
        "resilience_on": asdict(resilience_on),
        "resilience_off": asdict(resilience_off),
        "success_rate_delta": round(
            resilience_on.success_rate - resilience_off.success_rate, 6
        ),
    }
    add_observability(payload, (("resilience_on", on), ("resilience_off", off)))
    return payload


def _mttr_cell(report: AvailabilityReport, kind: str) -> str:
    stats = report.mttr.get(kind)
    return f"{stats['p100']:.2f}" if stats else "-"


def _availability_outputs(run: SpecRun, family: List[SpecRun]) -> List[Output]:
    """The on/off table, from a run with the ``resilience`` arm; the
    family's traced run adds ``BENCH_availability.json`` with its span,
    Chrome-trace and metrics files."""
    arm = run.ablations.get("resilience")
    if arm is None:
        return []
    outputs: List[Output] = []
    if family:
        collector = run.baseline.collector
        spans = collector.tracer.spans
        outputs = [
            ("BENCH_availability.json", bench_availability_payload(run)),
            ("BENCH_availability_spans.jsonl", spans_to_jsonl(spans)),
            ("BENCH_availability_trace.json",
             json.dumps(to_chrome_trace(spans), indent=1, sort_keys=True)
             + "\n"),
            ("BENCH_availability_metrics.json", collector.metrics_snapshot()),
        ]
    return outputs + [
        (
            "Availability: request resilience on vs off "
            "(4 INRs, crash+restart / partition / lossy links / CPU overload)",
            ["resilience", "requests", "success rate", "failed", "hung",
             "p50 (s)", "p99 (s)", "retries", "failovers",
             "crash MTTR p100 (s)"],
            [
                (
                    "on" if report.resilience else "off",
                    f"{report.requests_attempted}",
                    f"{report.success_rate:.3f}",
                    f"{report.requests_failed}",
                    f"{report.requests_hung}",
                    f"{report.latency_p50:.4f}",
                    f"{report.latency_p99:.4f}",
                    f"{report.retries}",
                    f"{report.failovers}",
                    _mttr_cell(report, "crash-inr"),
                )
                for report in (
                    run.baseline.details["report"], arm.details["report"]
                )
            ],
        ),
    ]


register_workload(Workload(
    id="availability",
    description=(
        "steady early-binding lookups through one seeded fault plan "
        "(crashes, lossy links, partition, CPU overload)"
    ),
    toggles=("resilience", "obs_tracing"),
    primary_metrics={
        "resilience": ("success_rate", "higher"),
        "obs_tracing": ("success_rate", "higher"),
    },
    run=run_availability_scenario,
    suite_tables=_availability_outputs,
))
