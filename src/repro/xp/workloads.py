"""Workload adapters: every experiment and figure as an engine Workload.

Each adapter maps concrete toggle values onto the knobs the underlying
experiment already exposes (``InrConfig`` flags, scenario arguments,
``NameTree`` construction options), hands the spec's params to the
experiment's driver as keyword arguments (so a param the driver does
not take raises, naming it), and folds the experiment's native
report into a :class:`~.runner.WorkloadResult`: it names the report
fields it exports (:func:`_report_metrics`). The ``metrics`` it
returns are deterministic — simulated-clock latencies, counters,
ratios, analytic costs — so the matrix report is byte-reproducible;
host-dependent numbers (wall-clock throughput, interpreter object
sizes) go in ``timings`` and only exist when the run asked for them.
``details`` keeps the native report object for the workload's
``suite_tables`` — its tables and its ``BENCH_*.json`` files — and the
tests' assertions.

This module (with :mod:`.runner` and :mod:`.cli`) reads the host clock,
``time.perf_counter`` only, which the ``entropy-taint`` lint rule
(applied everywhere) allows; :mod:`.spec`, :mod:`.report` and
:mod:`.gate` read no clock at all.
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..obs import spans_to_jsonl, to_chrome_trace
from .runner import (
    WORKLOADS,
    Output,
    SpecRun,
    Table,
    Workload,
    WorkloadResult,
    register_workload,
)
from .spec import ExperimentSpec, SpecError

#: What a ``suite_tables`` hook is given besides its own run.
Runs = Mapping[str, SpecRun]


def _report_metrics(report, names: Sequence[str]) -> Dict[str, float]:
    """The named fields of an experiment's native report as matrix
    metrics (counts become floats, rates stay as they are)."""
    return {name: float(getattr(report, name)) for name in names}


# ----------------------------------------------------------------------
# lookup — Figure 12 repeated queries + a top-level wild-card
# ----------------------------------------------------------------------
#: The ``lookup`` workload's scale parameters when a spec does not say.
LOOKUP_DEFAULTS = {
    "names": 6000,
    "distinct_queries": 64,
    "lookups": 6000,
    "refresh_every": 100,
    "wildcard_attribute": "a0",
    "depth": 3,
    "attribute_range": 3,
    "value_range": 3,
    "attributes_per_level": 2,
}


def _run_lookup(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.workload import UniformWorkload
    from ..naming import NameSpecifier
    from ..nametree import AnnouncerID, Endpoint, NameRecord, NameTree

    unknown = sorted(set(params) - set(LOOKUP_DEFAULTS))
    if unknown:
        raise SpecError(f"the lookup workload takes no param {', '.join(unknown)}")
    params = {**LOOKUP_DEFAULTS, **params}
    names_in_tree = int(params["names"])
    distinct_queries = int(params["distinct_queries"])
    lookups = int(params["lookups"])
    refresh_every = int(params["refresh_every"])
    wildcard_attribute = str(params["wildcard_attribute"])
    shape = {
        key: int(params[key])
        for key in (
            "depth", "attribute_range", "value_range", "attributes_per_level"
        )
    }

    names = UniformWorkload(rng=random.Random(seed), **shape).distinct_names(
        names_in_tree
    )
    query_source = UniformWorkload(rng=random.Random(seed + 1), **shape)
    queries = [query_source.random_name() for _ in range(distinct_queries)]

    def record(index: int) -> "NameRecord":
        return NameRecord(
            announcer=AnnouncerID.generate(f"memo-{index}", startup_time=1.0),
            endpoints=[Endpoint(host=f"memo-{index}", port=1)],
        )

    tree = NameTree(memoize=toggles["lookup_memo"])
    for index, name in enumerate(names):
        tree.insert(name, record(index))

    # The memo's home workload: a small distinct-query set issued over
    # and over, with pure periodic refreshes mixed in (refreshes keep
    # the memo warm instead of flushing it). The refresh schedule is
    # identical in every arm so the ablation compares like with like.
    refreshes = 0
    repeated_records = 0
    started = time.perf_counter()
    for index in range(lookups):
        repeated_records += len(tree.lookup(queries[index % distinct_queries]))
        if refresh_every and index % refresh_every == 0:
            refreshes += 1
            tree.insert(names[index % len(names)], record(index % len(names)))
    elapsed = time.perf_counter() - started

    metrics = {
        "memo_hits": float(tree.memo_hits),
        "memo_misses": float(tree.memo_misses),
        "memo_invalidations": float(tree.memo_invalidations),
        "memo_served_fraction": (tree.memo_hits / lookups) if lookups else 0.0,
        "refreshes": float(refreshes),
        "repeated_result_records": float(repeated_records),
    }
    wildcard = NameSpecifier.parse(f"[{wildcard_attribute}=*]")
    metrics["wildcard_matches"] = float(len(tree.lookup(wildcard)))

    timings = {}
    if timing and elapsed:
        timings["lookups_per_second"] = lookups / elapsed
    return WorkloadResult(metrics=metrics, timings=timings)


def memo_ablation_block(run: SpecRun) -> dict:
    """The ``memo_ablation`` block of ``BENCH_lookup.json``, from a
    timed ``lookup`` run whose baseline arm is memoized: cached vs
    uncached throughput plus the memo counters of the cached arm."""
    params = {**LOOKUP_DEFAULTS, **run.spec.params}
    cached = run.baseline.timings["lookups_per_second"]
    uncached = run.ablations["lookup_memo"].timings["lookups_per_second"]
    counters = run.baseline.metrics
    return {
        "names_in_tree": int(params["names"]),
        "distinct_queries": int(params["distinct_queries"]),
        "lookups": int(params["lookups"]),
        "uncached_lookups_per_second": uncached,
        "cached_lookups_per_second": cached,
        "speedup": cached / uncached,
        "memo_hits": int(counters["memo_hits"]),
        "memo_misses": int(counters["memo_misses"]),
        "refreshes_during_cached_run": int(counters["refreshes"]),
        "memo_invalidations": int(counters["memo_invalidations"]),
    }


def _lookup_tables(run: SpecRun, runs: Runs) -> List[Table]:
    """The wall-clock memo table; it needs timing numbers, so a
    metrics-only run writes nothing."""
    if not run.timing:
        return []
    block = memo_ablation_block(run)
    uncached = block["uncached_lookups_per_second"]
    cached = block["cached_lookups_per_second"]
    return [(
        "Ablation: lookup memo (cached vs uncached, repeated queries)",
        ["mode", "lookups/s", "speedup"],
        [
            ("uncached", f"{uncached:.0f}", "1.0x"),
            ("memoized", f"{cached:.0f}", f"{block['speedup']:.1f}x"),
        ],
    )]


register_workload(Workload(
    id="lookup",
    description=(
        "Figure 12 regime: repeated distinct queries with periodic "
        "refreshes, plus one top-level wild-card union"
    ),
    toggles=("lookup_memo",),
    primary_metrics={"lookup_memo": ("memo_served_fraction", "higher")},
    run=_run_lookup,
    suite_tables=_lookup_tables,
))


# ----------------------------------------------------------------------
# packet-cache — the Camera caching extension (Section 3.2)
# ----------------------------------------------------------------------
def _run_packet_cache(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.ablations import run_cache_experiment

    result = run_cache_experiment(
        seed=seed, packet_cache=toggles["packet_cache"], **params
    )
    return WorkloadResult(
        metrics={
            "requests": float(result.requests),
            "origin_served": float(result.origin_served),
            "cache_answers": float(result.cache_answers),
            "cache_served_fraction": (
                result.cache_answers / result.requests
                if result.requests
                else 0.0
            ),
        },
        details={"result": result},
    )


def _packet_cache_tables(run: SpecRun, runs: Runs) -> List[Table]:
    if not run.toggles.get("packet_cache"):
        return []
    result = run.baseline.details["result"]
    return [(
        "Ablation: INR packet cache on repeated Camera requests",
        ["requests", "served by origin", "answered from cache"],
        [(result.requests, result.origin_served, result.cache_answers)],
    )]


register_workload(Workload(
    id="packet-cache",
    description=(
        "repeated cacheable Camera requests through two INRs; the "
        "origin should serve once and the caches absorb the rest"
    ),
    toggles=("packet_cache",),
    primary_metrics={"packet_cache": ("origin_served", "lower")},
    run=_run_packet_cache,
    suite_tables=_packet_cache_tables,
))


# ----------------------------------------------------------------------
# availability — steady lookups under the seeded chaos fault plan
# ----------------------------------------------------------------------
def _run_availability(params, toggles, seed, timing) -> WorkloadResult:
    from ..chaos import run_availability_scenario

    report = run_availability_scenario(
        seed=seed,
        resilience=toggles["resilience"],
        observe=toggles["obs_tracing"],
        **params,
    )
    return WorkloadResult(
        metrics=_report_metrics(report, (
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
        collector=report.collector,
    )


def _mttr_cell(report, kind: str) -> str:
    stats = report.mttr.get(kind)
    return f"{stats['p100']:.2f}" if stats else "-"


def _availability_outputs(run: SpecRun, runs: Runs) -> List[Output]:
    """The on/off table, from a run with the ``resilience`` arm; the
    family's traced run adds ``BENCH_availability.json`` with its span,
    Chrome-trace and metrics files."""
    arm = run.ablations.get("resilience")
    if arm is None:
        return []
    resilient = run.baseline.details["report"]
    bare = arm.details["report"]
    outputs: List[Output] = []
    if _family(run, runs):
        from ..chaos import bench_availability_payload

        spans = resilient.collector.tracer.spans
        outputs = [
            ("BENCH_availability.json",
             bench_availability_payload(resilient, bare)),
            ("BENCH_availability_spans.jsonl", spans_to_jsonl(spans)),
            ("BENCH_availability_trace.json",
             json.dumps(to_chrome_trace(spans), indent=1, sort_keys=True)
             + "\n"),
            ("BENCH_availability_metrics.json",
             resilient.collector.metrics_snapshot()),
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
                for report in (resilient, bare)
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
    run=_run_availability,
    suite_tables=_availability_outputs,
))


# ----------------------------------------------------------------------
# dtn — disruption tolerance: custody transfer on vs off
# ----------------------------------------------------------------------
def _run_dtn(params, toggles, seed, timing) -> WorkloadResult:
    from ..chaos import run_dtn_scenario

    report = run_dtn_scenario(
        seed=seed,
        custody=toggles["custody"],
        observe=toggles["obs_tracing"],
        **params,
    )
    metrics = _report_metrics(report, (
        "delivery_ratio",
        "messages_sent",
        "messages_delivered",
        "latency_p50",
        "latency_p99",
        "latency_max",
        "custody_accepted",
        "custody_released",
        "custody_transfers_sent",
        "custody_transfers_received",
        "drops_custody_expired",
        "drops_custody_evicted",
        "drops_no_route",
        "drops_expired_record",
    ))
    metrics["converged_violations"] = float(len(report.converged_violations))
    return WorkloadResult(
        metrics=metrics,
        details={"report": report},
        collector=report.collector,
    )


def _dtn_outputs(run: SpecRun, runs: Runs) -> List[Output]:
    """``BENCH_dtn.json`` over a sweep of disruption lengths, with the
    first (traced) run's span and metrics files and the table."""
    sweep = _family(run, runs)
    if not sweep:
        return []
    from ..chaos import bench_dtn_payload

    traced = run.baseline.collector
    return [
        ("BENCH_dtn.json", bench_dtn_payload(sweep)),
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
                for spec_run in sweep
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
    run=_run_dtn,
    suite_tables=_dtn_outputs,
))


# ----------------------------------------------------------------------
# delegation — crash-safe two-phase vspace handoff, no operator
# ----------------------------------------------------------------------
def _run_delegation(params, toggles, seed, timing) -> WorkloadResult:
    from ..chaos import run_delegation_scenario

    two_phase = toggles["delegation_two_phase"]
    # The controlled comparison BENCH_delegation.json leads with: a
    # recipient crash with no operator restart. Two-phase is killed
    # mid-TRANSFER (the worst moment that protocol can be hit);
    # single-shot is killed right after its one unacknowledged batch —
    # the moment that *exists* for it and orphans the vspace.
    report = run_delegation_scenario(
        seed=seed,
        two_phase=two_phase,
        crash_role="recipient",
        crash_phase="transfer" if two_phase else "post-transfer",
        restart_after=None,
        **params,
    )
    metrics = _report_metrics(report, (
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
    return WorkloadResult(metrics=metrics, details={"report": report})


def _delegation_tables(run: SpecRun, runs: Runs) -> List[Table]:
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
    run=_run_delegation,
    suite_tables=_delegation_tables,
))


def _run_delegation_matrix(params, toggles, seed, timing) -> WorkloadResult:
    from ..chaos import run_delegation_matrix

    reports = run_delegation_matrix(seed=seed, observe_baseline=True, **params)
    crashed = [report for report in reports if report.crash_role is not None]
    metrics = {
        "runs": float(len(reports)),
        "crashes_fired": float(sum(report.crash_at > 0.0 for report in crashed)),
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
    }
    return WorkloadResult(
        metrics=metrics,
        details={"reports": reports},
        collector=reports[0].collector,
    )


def _delegation_matrix_outputs(
    run: SpecRun, runs: Runs
) -> List[Output]:
    """The crash-matrix table; the family's run adds
    ``BENCH_delegation.json``, which folds the matrix with a
    ``delegation`` spec's two-phase vs single-shot ablation."""
    family = _family(run, runs)
    matrix = run.baseline.details["reports"]
    outputs: List[Output] = []
    if family:
        from ..chaos import bench_delegation_payload

        _, ablation = family
        traced = run.baseline.collector
        outputs = [
            ("BENCH_delegation.json",
             bench_delegation_payload(matrix, ablation)),
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
    run=_run_delegation_matrix,
    suite_tables=_delegation_matrix_outputs,
))


# ----------------------------------------------------------------------
# discovery — Figure 14: discovery time vs overlay hops
# ----------------------------------------------------------------------
def _run_discovery(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.fig14 import run_discovery_experiment, slope_ms_per_hop

    rows, collector = run_discovery_experiment(
        seed=seed, observe=toggles["obs_tracing"], **params
    )
    # Discovery traffic carries no trace contexts, so ablating tracing
    # must not move a single timestamp: importance 0 here is the
    # reproduced zero-overhead claim, not a missing measurement.
    metrics = {
        "slope_ms_per_hop": slope_ms_per_hop(rows),
        "discovery_ms_first_hop": rows[0].discovery_ms,
        "discovery_ms_max_hops": rows[-1].discovery_ms,
        "hops": float(rows[-1].hops),
    }
    return WorkloadResult(
        metrics=metrics, details={"rows": rows}, collector=collector
    )


def _discovery_outputs(run: SpecRun, runs: Runs) -> List[Output]:
    """Figure 14; the family's run at the paper's 1-9 hops adds
    ``BENCH_discovery.json``."""
    rows = run.baseline.details["rows"]
    slope = run.baseline.metrics["slope_ms_per_hop"]
    outputs: List[Output] = []
    if _family(run, runs):
        from ..experiments.fig14 import bench_discovery_payload

        outputs = [("BENCH_discovery.json",
                    bench_discovery_payload(rows, run.baseline.collector))]
    return outputs + [
        (
            "Figure 14: discovery time of a new name vs INR hops "
            f"(slope {slope:.2f} ms/hop)",
            ["hops", "discovery time (ms)"],
            [(row.hops, f"{row.discovery_ms:.2f}") for row in rows],
        ),
    ]


register_workload(Workload(
    id="discovery",
    description=(
        "Figure 14: time for a new name to reach the h-th resolver of "
        "an INR chain, linear in hops"
    ),
    toggles=("obs_tracing",),
    primary_metrics={"obs_tracing": ("slope_ms_per_hop", "lower")},
    run=_run_discovery,
    suite_tables=_discovery_outputs,
))


# ----------------------------------------------------------------------
# routing — Figure 15: per-INR burst routing cost
# ----------------------------------------------------------------------
def _run_routing(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.fig15 import run_observed_routing, run_routing_experiment
    from ..resolver import CostModel

    params = dict(params)
    traced_burst = params.pop("traced_burst", None)
    costs = CostModel(model_delivery_artifact=toggles["delivery_artifact"])
    rows = run_routing_experiment(seed=seed, costs=costs, **params)
    result = WorkloadResult(details={"rows": rows})
    metrics = result.metrics
    if traced_burst is not None:
        # One traced remote-same-vspace burst at that many names: the
        # per-hop split behind the flat ~9.8 ms/packet curve.
        burst_ms, result.collector = run_observed_routing(
            names=traced_burst, seed=seed, costs=costs
        )
        result.details["traced_burst_ms"] = burst_ms
        metrics["traced_burst_ms"] = burst_ms
    for row in rows:
        metrics[f"local_ms_{row.names_in_vspace}"] = row.local_ms
        metrics[f"remote_same_vspace_ms_{row.names_in_vspace}"] = (
            row.remote_same_vspace_ms
        )
        metrics[f"remote_other_vspace_ms_{row.names_in_vspace}"] = (
            row.remote_other_vspace_ms
        )
    # The delivery artifact is a deliberately reproduced *cost* from
    # the paper, so its importance is negative by construction: the
    # local curve flattens when it is disabled.
    metrics["local_ms_max_names"] = rows[-1].local_ms
    return result


def _routing_outputs(run: SpecRun, runs: Runs) -> List[Output]:
    """Figure 15 and, from the ``delivery_artifact`` arm, its ablation;
    the family's run (with its ``traced_burst``) adds
    ``BENCH_routing.json``."""
    rows = run.baseline.details["rows"]
    outputs: List[Output] = []
    if _family(run, runs):
        from ..experiments.fig15 import bench_routing_payload

        outputs = [("BENCH_routing.json", bench_routing_payload(
            rows,
            observed_burst_ms=run.baseline.details["traced_burst_ms"],
            collector=run.baseline.collector,
        ))]
    outputs.append((
        "Figure 15: time to route 100 packets (ms per burst)",
        ["names in vspace", "local", "remote same vspace",
         "remote different vspace"],
        [
            (
                row.names_in_vspace,
                f"{row.local_ms:.0f}",
                f"{row.remote_same_vspace_ms:.0f}",
                f"{row.remote_other_vspace_ms:.0f}",
            )
            for row in rows
        ],
    ))
    arm = run.ablations.get("delivery_artifact")
    if run.toggles.get("delivery_artifact") and arm is not None:
        outputs.append((
            "Figure 15 ablation: local case with the delivery artifact "
            "disabled",
            ["names in vspace", "local (ms/burst)"],
            [(row.names_in_vspace, f"{row.local_ms:.0f}")
             for row in arm.details["rows"]],
        ))
    return outputs


register_workload(Workload(
    id="routing",
    description=(
        "Figure 15: simulated ms to route a 100-packet burst (local / "
        "remote same-vspace / remote other-vspace) as the vspace grows"
    ),
    toggles=("delivery_artifact",),
    primary_metrics={"delivery_artifact": ("local_ms_max_names", "lower")},
    run=_run_routing,
    suite_tables=_routing_outputs,
))


# ----------------------------------------------------------------------
# spawn-overload — Section 2.5 spawn on lookup overload
# ----------------------------------------------------------------------
def _run_spawn_overload(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.ablations import run_spawn_experiment

    result = run_spawn_experiment(
        seed=seed, enable_load_balancing=toggles["load_balancing"], **params
    )
    return WorkloadResult(
        metrics={
            "inrs_before": float(result.inrs_before),
            "inrs_during_load": float(result.inrs_during_load),
            "inrs_after": float(result.inrs_after),
            "spawned": float(len(result.spawned_addresses)),
            "main_peak_utilization": result.main_peak_utilization,
            "main_min_utilization_late": result.main_min_utilization_late,
        },
        details={"result": result},
    )


def _spawn_tables(run: SpecRun, runs: Runs) -> List[Table]:
    if not run.toggles.get("load_balancing"):
        return []
    result = run.baseline.details["result"]
    return [(
        "Ablation: spawn on lookup overload",
        ["INRs before", "INRs during load", "INRs after idle",
         "spawned nodes", "main peak util", "main min util (late)"],
        [(
            result.inrs_before,
            result.inrs_during_load,
            result.inrs_after,
            ",".join(result.spawned_addresses) or "-",
            f"{result.main_peak_utilization:.2f}",
            f"{result.main_min_utilization_late:.2f}",
        )],
    )]


register_workload(Workload(
    id="spawn-overload",
    description=(
        "lookup-overloaded INR claims candidates and spawns helpers "
        "while the load flows; helpers retire on idleness"
    ),
    toggles=("load_balancing",),
    primary_metrics={
        "load_balancing": ("main_min_utilization_late", "lower"),
    },
    run=_run_spawn_overload,
    suite_tables=_spawn_tables,
))


# ----------------------------------------------------------------------
# update-overload — Section 2.5 vspace delegation on update overload
# ----------------------------------------------------------------------
def _run_update_overload(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.ablations import run_delegation_experiment

    result = run_delegation_experiment(
        seed=seed, enable_load_balancing=toggles["load_balancing"], **params
    )
    return WorkloadResult(
        metrics={
            "vspaces_before": float(len(result.vspaces_before)),
            "vspaces_after": float(len(result.vspaces_after)),
            "vspaces_delegated": float(
                len(result.vspaces_before) - len(result.vspaces_after)
            ),
            "still_resolvable": float(result.still_resolvable),
        },
        details={"result": result},
    )


def _update_overload_tables(run: SpecRun, runs: Runs) -> List[Table]:
    if not run.toggles.get("load_balancing"):
        return []
    result = run.baseline.details["result"]
    return [(
        "Ablation: vspace delegation on update overload",
        ["vspaces before", "vspaces after", "delegate resolver",
         "delegated space still resolvable"],
        [(
            ",".join(result.vspaces_before),
            ",".join(result.vspaces_after),
            ",".join(result.delegate_resolvers) or "-",
            result.still_resolvable,
        )],
    )]


register_workload(Workload(
    id="update-overload",
    description=(
        "update-overloaded INR delegates one of its vspaces; the "
        "delegated names stay resolvable through vspace forwarding"
    ),
    toggles=("load_balancing",),
    primary_metrics={"load_balancing": ("vspaces_delegated", "higher")},
    run=_run_update_overload,
    suite_tables=_update_overload_tables,
))


# ----------------------------------------------------------------------
# Toggle-less workloads: the paper's figures and the design-choice
# ablations with no component to flip. Each calls its driver with the
# spec's params as keyword arguments (a sweep is a tuple param) and
# renders the table the figure has always had.
# ----------------------------------------------------------------------
#: One table column: header, row attribute, format spec.
Column = Tuple[str, str, str]


def _point_label(point) -> str:
    """A sweep point as a metric-name suffix: ``2.0`` -> ``2``,
    ``"soft-state"`` -> ``soft_state``."""
    text = f"{point:g}" if isinstance(point, float) else str(point)
    return text.replace("-", "_")


def _render(title: str, columns: Sequence[Column], rows) -> Table:
    return (
        title,
        [header for header, _, _ in columns],
        [
            [format(getattr(row, attr), spec) for _, attr, spec in columns]
            for row in rows
        ],
    )


def _sweep(
    workload_id: str,
    description: str,
    title: str,
    columns: Sequence[Column],
    extra_metrics: Sequence[str] = (),
    timed: bool = False,
) -> Callable:
    """Register the decorated driver, which returns one row per sweep
    point, as a workload. The first column is the point; every other
    column (and each of ``extra_metrics``) is a metric
    ``<attribute>_<point>``. ``timed`` marks numbers that depend on the
    host: they are timings, so an untimed run does not call the driver
    and writes no table. A driver imports its experiment itself, like
    every adapter, so importing ``repro.xp`` does not import every
    experiment and the simulated system behind it."""
    point = columns[0][1]
    fields = [attr for _, attr, _ in columns[1:]] + list(extra_metrics)

    def register(driver: Callable[..., list]) -> Callable[..., list]:
        def run(params, toggles, seed, timing) -> WorkloadResult:
            if timed and not timing:
                return WorkloadResult()
            rows = driver(seed=seed, **params)
            result = WorkloadResult(details={"rows": rows})
            numbers = result.timings if timed else result.metrics
            for row in rows:
                label = _point_label(getattr(row, point))
                for name in fields:
                    numbers[f"{name}_{label}"] = float(getattr(row, name))
            return result

        def tables(spec_run: SpecRun, runs: Runs) -> List[Table]:
            if timed and not spec_run.timing:
                return []
            return [_render(title, columns, spec_run.baseline.details["rows"])]

        register_workload(Workload(
            id=workload_id, description=description, run=run,
            suite_tables=tables,
        ))
        return driver

    return register


@_sweep(
    "saturation",
    "Figure 8: INR CPU vs 1 Mbps link use as refreshed names grow",
    "Figure 8: CPU vs bandwidth saturation (15 s refresh, 1 Mbps link)",
    [
        ("names", "total_names", ""),
        ("cpu %", "cpu_percent", ".1f"),
        ("bandwidth %", "bandwidth_percent", ".1f"),
        ("bytes/interval", "bytes_per_interval", ""),
    ],
)
def _saturation_rows(**params):
    from ..experiments.fig08 import run_saturation_experiment

    return run_saturation_experiment(**params)


@_sweep(
    "partition",
    "Figure 9: update-round time, vspaces split over one or two machines",
    "Figure 9: periodic update time (ms) vs names, two equal vspaces",
    [
        ("names", "total_names", ""),
        ("1 vspace / 1 machine", "one_vspace_one_machine_ms", ".0f"),
        ("2 vspaces / 1 machine", "two_vspaces_one_machine_ms", ".0f"),
        ("2 vspaces / 2 machines", "two_vspaces_two_machines_ms", ".0f"),
    ],
)
def _partition_rows(**params):
    from ..experiments.fig09 import run_partition_experiment

    return run_partition_experiment(**params)


@_sweep(
    "tree-size",
    "Figure 13: the name-tree's deep getsizeof (host-dependent: timings)",
    "Figure 13: name-tree size vs names in the tree",
    [
        ("names in tree", "names_in_tree", ""),
        ("megabytes", "tree_megabytes", ".2f"),
    ],
    timed=True,
)
def _tree_size_rows(**params):
    from ..experiments.fig13 import run_size_experiment

    return run_size_experiment(**params)


@_sweep(
    "lookup-curve",
    "Figure 12: uncached LOOKUP-NAME throughput as the tree grows "
    "(wall clock: timings)",
    "Figure 12: name-tree lookup performance (r_a=3, r_v=3, n_a=2, d=3)",
    [
        ("names in tree", "names_in_tree", ""),
        ("lookups/s", "lookups_per_second", ".0f"),
        ("mean lookup (us)", "mean_lookup_us", ".1f"),
    ],
    timed=True,
)
def _lookup_curve_rows(**params):
    from ..experiments.fig12 import run_lookup_experiment

    return run_lookup_experiment(**params)


@_sweep(
    "recovery-clocks",
    "soft-state clocks vs crash detection, MTTR and control bandwidth",
    "Ablation: soft-state clocks vs recovery "
    "(5 INRs, crash+restart / flaps / noisy links / DSR failover)",
    [
        ("refresh (s)", "refresh_interval", ".0f"),
        ("nbr timeout (s)", "neighbor_timeout", ".0f"),
        ("crash detect p100 (s)", "crash_detect_p100", ".2f"),
        ("crash MTTR p50 (s)", "crash_mttr_p50", ".2f"),
        ("crash MTTR p100 (s)", "crash_mttr_p100", ".2f"),
        ("failover MTTR (s)", "failover_mttr_p100", ".2f"),
        ("control bytes/s", "control_bytes_per_second", ".0f"),
    ],
    extra_metrics=("violations",),
)
def _recovery_rows(**params):
    from ..chaos import run_recovery_ablation

    return run_recovery_ablation(**params)


@_sweep(
    "update-modes",
    "footnote 3: soft-state flooding vs reliable-delta inter-INR updates",
    "Ablation: soft-state vs reliable-delta inter-INR updates "
    "(20 services, 15 s refresh)",
    [
        ("mode", "mode", ""),
        ("steady bytes/s", "steady_state_bytes_per_second", ".1f"),
        ("stale removal (s)", "stale_name_removal_s", ".1f"),
        ("change propagation (s)", "change_propagation_s", ".3f"),
    ],
)
def _update_mode_rows(**params):
    from ..experiments.ablations import run_update_mode_comparison

    return run_update_mode_comparison(**params)


@_sweep(
    "refresh-interval",
    "Section 7: refresh interval vs control bandwidth and stale names",
    "Ablation: soft-state refresh interval tradeoff "
    "(10 services, lifetime = 3x interval)",
    [
        ("refresh interval (s)", "refresh_interval", ".0f"),
        ("control bytes/s on INR link", "control_bytes_per_second", ".0f"),
        ("stale-name removal (s)", "stale_name_removal_s", ".1f"),
    ],
)
def _refresh_interval_rows(**params):
    from ..experiments.ablations import run_softstate_experiment

    return run_softstate_experiment(**params)


#: The DNS baseline's three systems, in the driver's row order.
_MOBILITY_SYSTEMS = ("ins", "dns_fixed", "dns_stale")


def _run_dns_mobility(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.baseline_dns import run_mobility_comparison

    rows = run_mobility_comparison(seed=seed, **params)
    metrics = {}
    for system, row in zip(_MOBILITY_SYSTEMS, rows):
        metrics[f"requests_sent_{system}"] = float(row.requests_sent)
        metrics[f"delivered_{system}"] = float(row.delivered)
        # "Never recovers" is an infinite outage, which JSON cannot
        # carry: it is a 0 in ``recovered_*`` and no ``outage_s_*``.
        recovered = math.isfinite(row.outage_seconds)
        metrics[f"recovered_{system}"] = float(recovered)
        if recovered:
            metrics[f"outage_s_{system}"] = row.outage_seconds
    return WorkloadResult(metrics=metrics, details={"rows": rows})


def _dns_mobility_tables(run: SpecRun, runs: Runs) -> List[Table]:
    return [(
        "Baseline: node mobility at t=20s, one request per 0.5s for 120s",
        ["system", "sent", "delivered", "outage after move (s)"],
        [
            (
                row.system,
                row.requests_sent,
                row.delivered,
                "never recovers" if math.isinf(row.outage_seconds)
                else f"{row.outage_seconds:.1f}",
            )
            for row in run.baseline.details["rows"]
        ],
    )]


register_workload(Workload(
    id="dns-mobility",
    description="INS late binding vs DNS-style early binding, host moving",
    run=_run_dns_mobility,
    suite_tables=_dns_mobility_tables,
))


def _run_lookup_model(params, toggles, seed, timing) -> WorkloadResult:
    # Every number is wall clock: an untimed run has nothing to measure.
    if not timing:
        return WorkloadResult()
    from ..experiments.ablations import run_lookup_model_check

    rows, fitted_t_us, fitted_b_us = run_lookup_model_check(
        seed=seed, **params
    )
    timings = {"fit_t_us": fitted_t_us, "fit_b_us": fitted_b_us}
    for row in rows:
        timings[f"measured_us_{row.depth}"] = row.measured_us
        timings[f"predicted_us_{row.depth}"] = row.predicted_us
    return WorkloadResult(
        timings=timings,
        details={"rows": rows, "fit": (fitted_t_us, fitted_b_us)},
    )


def _lookup_model_tables(run: SpecRun, runs: Runs) -> List[Table]:
    if not run.timing:
        return []
    fitted_t_us, fitted_b_us = run.baseline.details["fit"]
    return [_render(
        "Ablation: T(d) model vs measured lookup time "
        f"(fit t={fitted_t_us:.2f}us, b={fitted_b_us:.2f}us)",
        [
            ("depth d", "depth", ""),
            ("measured (us)", "measured_us", ".1f"),
            ("model (us)", "predicted_us", ".1f"),
        ],
        run.baseline.details["rows"],
    )]


register_workload(Workload(
    id="lookup-model",
    description="Section 5.1.1: LOOKUP-NAME time vs the T(d) model (timed)",
    run=_run_lookup_model,
    suite_tables=_lookup_model_tables,
))


_RELAXATION_COLUMNS = (
    ("after degradation", "initial_tree_cost", ".4f"),
    ("after relaxation", "relaxed_tree_cost", ".4f"),
    ("greedy under new latencies", "optimal_like_cost", ".4f"),
)


def _run_relaxation(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.ablations import run_relaxation_experiment

    result = run_relaxation_experiment(seed=seed, **params)
    return WorkloadResult(
        metrics=_report_metrics(
            result, [attr for _, attr, _ in _RELAXATION_COLUMNS]
        ),
        details={"result": result},
    )


def _relaxation_tables(run: SpecRun, runs: Runs) -> List[Table]:
    return [_render(
        "Ablation: overlay tree cost (sum of parent-edge latencies, s)",
        _RELAXATION_COLUMNS,
        [run.baseline.details["result"]],
    )]


register_workload(Workload(
    id="relaxation",
    description="Section 2.4: overlay relaxation repairing a degraded tree",
    run=_run_relaxation,
    suite_tables=_relaxation_tables,
))


# ----------------------------------------------------------------------
# The committed default suite
# ----------------------------------------------------------------------
#: ``BENCH_dtn.json``'s sweep: one ``dtn`` spec per disruption length,
#: the first traced.
DTN_SWEEP = ("dtn-disruption-10", "dtn-disruption-30", "dtn-disruption-60")

#: The specs that write a ``BENCH_*.json`` family or a table folding
#: other specs' runs, each with the specs whose runs it folds in. It is
#: the one rule every hook asks (:func:`_family`); every other output
#: is a table built from one run, which each run of its workload
#: renders.
FAMILY_WRITERS: Dict[str, Tuple[str, ...]] = {
    "availability-chaos": (),
    DTN_SWEEP[0]: DTN_SWEEP[1:],
    "delegation-matrix": ("delegation-crash",),
    "fig14-discovery": (),
    "fig15-routing": (),
}


def _family(run: SpecRun, runs: Runs) -> List[SpecRun]:
    """The runs the family written from ``run`` folds, ``run`` first;
    [] when ``run``'s spec writes no family."""
    folded = FAMILY_WRITERS.get(run.spec.name)
    if folded is None:
        return []
    missing = [name for name in folded if name not in runs]
    if missing:
        raise SpecError(
            f"spec {run.spec.name!r} folds {', '.join(missing)}, "
            "which the suite does not run"
        )
    return [run] + [runs[name] for name in folded]


def default_suite() -> Dict[str, ExperimentSpec]:
    """The suite behind the committed ``BENCH_matrix.json`` and every
    other file under ``benchmarks/results/``, by spec name and in run
    order, one spec per experiment, each at its full scale: the
    toggled workloads, then the toggle-less figures and ablations, then
    the runs the ``BENCH_*.json`` families fold — all deterministic
    with ``timing=False``, so each family's run IDs are matrix entries.
    New specs go at the end: an entry's place is part of the matrix."""
    specs = [
        ExperimentSpec(
            name="packet-cache-camera",
            workload="packet-cache",
            seed=0,
            params={"requests": 10},
        ),
        ExperimentSpec(name="availability-chaos", workload="availability", seed=7),
        ExperimentSpec(name="delegation-crash", workload="delegation", seed=7),
        ExperimentSpec(
            name="spawn-overload",
            workload="spawn-overload",
            seed=0,
            params={"request_rate": 900.0, "duration": 40.0},
        ),
        ExperimentSpec(name="update-overload", workload="update-overload", seed=0),
        ExperimentSpec(
            name="fig08-saturation",
            workload="saturation",
            params={
                "name_counts": tuple(range(0, 20001, 2500)),
                "measure_intervals": 2,
            },
        ),
        ExperimentSpec(
            name="fig09-partition",
            workload="partition",
            params={"name_counts": (500, 1000, 2000, 3000, 4000, 5000)},
        ),
        ExperimentSpec(
            name="fig13-tree-size",
            workload="tree-size",
            params={"name_counts": (100, 1000, 2500, 5000, 7500, 10000, 14300)},
        ),
        ExperimentSpec(name="dns-mobility", workload="dns-mobility"),
        ExperimentSpec(
            name="lookup-model-check",
            workload="lookup-model",
            params={"depths": (1, 2, 3, 4, 5), "names_per_tree": 300, "lookups": 400},
        ),
        ExperimentSpec(
            name="overlay-relaxation",
            workload="relaxation",
            params={"inr_count": 8, "rounds": 400.0},
        ),
        ExperimentSpec(
            name="recovery-clocks",
            workload="recovery-clocks",
            seed=7,
            params={"sweep": ((1.0, 3.0), (2.0, 6.0), (4.0, 12.0))},
        ),
        ExperimentSpec(
            name="update-modes", workload="update-modes", params={"services": 20}
        ),
        ExperimentSpec(
            name="refresh-interval",
            workload="refresh-interval",
            params={"refresh_intervals": (2.0, 5.0, 15.0)},
        ),
        *(
            ExperimentSpec(
                name=name,
                workload="dtn",
                seed=7,
                toggles={"obs_tracing": name == DTN_SWEEP[0]},
                params={"disruption": disruption},
                ablations=("custody",),
            )
            for name, disruption in zip(DTN_SWEEP, (10.0, 30.0, 60.0))
        ),
        ExperimentSpec(name="delegation-matrix", workload="delegation-matrix", seed=7),
        ExperimentSpec(
            name="fig14-discovery",
            workload="discovery",
            seed=0,
            params={"max_hops": 9},
        ),
        ExperimentSpec(
            name="fig15-routing",
            workload="routing",
            seed=0,
            params={"name_counts": (250, 1000, 2500, 5000), "traced_burst": 250},
        ),
        ExperimentSpec(
            name="fig12-lookup-curve",
            workload="lookup-curve",
            params={
                "name_counts": (100, 1000, 2500, 5000, 7500, 10000, 14300),
                "lookups_per_point": 1000,
            },
        ),
        # The memo's home workload at Figure-12 scale, the one
        # ``perf_smoke.py`` reports in ``BENCH_lookup.json``: the
        # baseline arm runs memoized with periodic refreshes, the
        # ``lookup_memo`` arm is the uncached control.
        ExperimentSpec(
            name="fig12-memo",
            workload="lookup",
            seed=0,
            params={"names": 5000, "lookups": 20000},
            ablations=("lookup_memo",),
        ),
    ]
    return {spec.name: spec for spec in specs}
