"""Workload adapters: every migrated benchmark as an engine Workload.

Each adapter maps concrete toggle values onto the knobs the underlying
experiment already exposes (``InrConfig`` flags, scenario arguments,
``NameTree`` construction options) and folds the experiment's native
report into a :class:`~.runner.WorkloadResult`: it names the report
fields it exports (:func:`_report_metrics`). The ``metrics`` it
returns are deterministic — simulated-clock latencies, counters,
ratios, analytic costs — so the matrix report is byte-reproducible;
wall-clock throughput numbers go in ``timings`` and only exist when the
run asked for them. ``details`` keeps the native report object so the
migrated bench drivers retain their own assertions and artifact
writers.

This module (with :mod:`.runner` and :mod:`.cli`) reads the host clock,
``time.perf_counter`` only, which the ``entropy-taint`` lint rule
(applied everywhere) allows; :mod:`.spec`, :mod:`.report`,
:mod:`.schema` and :mod:`.gate` read no clock at all.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence

from .runner import (
    WORKLOADS,
    SpecRun,
    Table,
    Workload,
    WorkloadResult,
    register_workload,
)
from .spec import ExperimentSpec


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


def _lookup_tables(run: SpecRun) -> List[Table]:
    """The wall-clock memo table; it needs timing numbers, so a
    metrics-only run writes nothing."""
    if not (
        run.timing
        and run.toggles.get("lookup_memo")
        and "lookup_memo" in run.ablations
    ):
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


#: The memo's home workload at Figure-12 scale: the baseline arm runs
#: memoized with periodic refreshes, the ``lookup_memo`` arm is the
#: uncached control — same tree, same queries, same refreshes. The
#: fig12 bench and ``perf_smoke.py`` both run this one spec.
FIG12_MEMO_SPEC = ExperimentSpec(
    name="fig12-memo",
    workload="lookup",
    seed=0,
    params={"names": 5000, "lookups": 20000},
    ablations=("lookup_memo",),
)


# ----------------------------------------------------------------------
# packet-cache — the Camera caching extension (Section 3.2)
# ----------------------------------------------------------------------
def _run_packet_cache(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.ablations import run_cache_experiment

    result = run_cache_experiment(
        requests=int(params.get("requests", 10)),
        seed=seed,
        packet_cache=toggles["packet_cache"],
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


def _packet_cache_tables(run: SpecRun) -> List[Table]:
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
        n_inrs=int(params.get("n_inrs", 4)),
        n_services=int(params.get("n_services", 3)),
        n_clients=int(params.get("n_clients", 3)),
        duration=float(params.get("duration", 30.0)),
        lookup_interval=float(params.get("lookup_interval", 0.5)),
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
))


# ----------------------------------------------------------------------
# dtn — disruption tolerance: custody transfer on vs off
# ----------------------------------------------------------------------
def _run_dtn(params, toggles, seed, timing) -> WorkloadResult:
    from ..chaos import run_dtn_scenario

    report = run_dtn_scenario(
        seed=seed,
        custody=toggles["custody"],
        disruption=float(params.get("disruption", 30.0)),
        duty_window=float(params.get("duty_window", 12.0)),
        observe=toggles["obs_tracing"],
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
        n_bulk=int(params.get("n_bulk", 24)),
        n_anchor=int(params.get("n_anchor", 6)),
        traffic=float(params.get("traffic", 14.0)),
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
))


# ----------------------------------------------------------------------
# discovery — Figure 14: discovery time vs overlay hops
# ----------------------------------------------------------------------
def _run_discovery(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.fig14 import run_discovery_experiment, slope_ms_per_hop

    rows, collector = run_discovery_experiment(
        max_hops=int(params.get("max_hops", 6)),
        seed=seed,
        chain_latency=float(params.get("chain_latency", 0.002)),
        observe=toggles["obs_tracing"],
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


register_workload(Workload(
    id="discovery",
    description=(
        "Figure 14: time for a new name to reach the h-th resolver of "
        "an INR chain, linear in hops"
    ),
    toggles=("obs_tracing",),
    primary_metrics={"obs_tracing": ("slope_ms_per_hop", "lower")},
    run=_run_discovery,
))


# ----------------------------------------------------------------------
# routing — Figure 15: per-INR burst routing cost
# ----------------------------------------------------------------------
def _run_routing(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.fig15 import run_routing_experiment
    from ..resolver import CostModel

    name_counts = tuple(int(n) for n in params.get("name_counts", (250, 5000)))
    rows = run_routing_experiment(
        name_counts=name_counts,
        seed=seed,
        costs=CostModel(model_delivery_artifact=toggles["delivery_artifact"]),
    )
    metrics = {}
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
    return WorkloadResult(metrics=metrics, details={"rows": rows})


def _routing_tables(run: SpecRun) -> List[Table]:
    arm = run.ablations.get("delivery_artifact")
    if not run.toggles.get("delivery_artifact") or arm is None:
        return []
    rows = arm.details["rows"]
    return [(
        "Figure 15 ablation: local case with the delivery artifact disabled",
        ["names in vspace", "local (ms/burst)"],
        [(row.names_in_vspace, f"{row.local_ms:.0f}") for row in rows],
    )]


register_workload(Workload(
    id="routing",
    description=(
        "Figure 15: simulated ms to route a 100-packet burst (local / "
        "remote same-vspace / remote other-vspace) as the vspace grows"
    ),
    toggles=("delivery_artifact",),
    primary_metrics={"delivery_artifact": ("local_ms_max_names", "lower")},
    run=_run_routing,
    suite_tables=_routing_tables,
))


# ----------------------------------------------------------------------
# spawn-overload — Section 2.5 spawn on lookup overload
# ----------------------------------------------------------------------
def _run_spawn_overload(params, toggles, seed, timing) -> WorkloadResult:
    from ..experiments.ablations import run_spawn_experiment

    result = run_spawn_experiment(
        request_rate=float(params.get("request_rate", 900.0)),
        duration=float(params.get("duration", 40.0)),
        seed=seed,
        enable_load_balancing=toggles["load_balancing"],
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


def _spawn_tables(run: SpecRun) -> List[Table]:
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
        seed=seed, enable_load_balancing=toggles["load_balancing"]
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


def _update_overload_tables(run: SpecRun) -> List[Table]:
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
# The committed default suite
# ----------------------------------------------------------------------
def default_suite() -> Dict[str, ExperimentSpec]:
    """The suite behind the committed ``BENCH_matrix.json``, by spec
    name and in run order: every toggle exercised at least once, scaled
    to finish in well under a minute, deterministic with
    ``timing=False``. A bench script that regenerates one entry's
    artifact fetches the spec from here, so its run IDs are the
    matrix's."""
    specs = [
        ExperimentSpec(
            name="lookup-memo-index",
            workload="lookup",
            seed=0,
            params={"names": 6000, "lookups": 6000},
        ),
        ExperimentSpec(
            name="packet-cache-camera",
            workload="packet-cache",
            seed=0,
            params={"requests": 10},
        ),
        ExperimentSpec(name="availability-chaos", workload="availability", seed=7),
        ExperimentSpec(
            name="dtn-disruption",
            workload="dtn",
            seed=7,
            params={"disruption": 30.0},
        ),
        ExperimentSpec(name="delegation-crash", workload="delegation", seed=7),
        ExperimentSpec(
            name="discovery-chain",
            workload="discovery",
            seed=0,
            params={"max_hops": 6},
        ),
        ExperimentSpec(
            name="routing-burst",
            workload="routing",
            seed=0,
            params={"name_counts": (250, 5000)},
        ),
        ExperimentSpec(
            name="spawn-overload",
            workload="spawn-overload",
            seed=0,
            params={"request_rate": 900.0, "duration": 40.0},
        ),
        ExperimentSpec(name="update-overload", workload="update-overload", seed=0),
    ]
    return {spec.name: spec for spec in specs}
