"""Disruption tolerance — custody-transfer store-and-forward on vs off.

The availability benchmark shows retries ride out faults *shorter than
a request deadline*. This one measures the opposite regime: duty-cycled
links and partitions that outlast any deadline, where a late-binding
anycast payload is simply lost unless a custodian holds it.
Engine-driven: one ``dtn`` spec per disruption length runs the same
seeded fault plan (intermittent links, then a long partition cutting
the service's resolver — and the DSR — off) twice: the baseline with
the custody store enabled, the ``custody`` ablation arm with the
paper's drop-at-no-route behavior. The delta is purely what disruption
tolerance buys: payloads queued during the partition are delivered
when the service re-advertises on heal, at the price of a latency tail
the length of the disruption.

Emits ``BENCH_dtn.json`` (delivery ratio and latency vs disruption
length, custody on vs off). The first spec is traced: ``inr.custody``
spans (accept/release/expire/evict) land in ``BENCH_dtn_spans.jsonl``;
drop attribution rides the artifact under ``observability``.
"""

import os

from _report import RESULTS_DIR, record_table

from repro.chaos import write_bench_dtn_json
from repro.obs import well_formed_traces, write_canonical_json, write_spans_jsonl
from repro.xp import ExperimentSpec, run_spec

SEED = 7
DISRUPTIONS = (10.0, 30.0, 60.0)

#: One spec per disruption length; only the first is traced (one
#: observed run keeps the sweep cheap while still producing span
#: artifacts for the CI job to upload).
SPECS = [
    ExperimentSpec(
        name=f"dtn-disruption-{int(disruption)}",
        workload="dtn",
        seed=SEED,
        toggles={"obs_tracing": index == 0},
        params={"disruption": disruption},
        ablations=("custody",),
    )
    for index, disruption in enumerate(DISRUPTIONS)
]


def test_dtn_custody_on_vs_off(benchmark):
    runs = benchmark.pedantic(
        lambda: [run_spec(spec, timing=False) for spec in SPECS],
        rounds=1,
        iterations=1,
    )
    payload = write_bench_dtn_json(
        os.path.join(RESULTS_DIR, "BENCH_dtn.json"), runs
    )
    pairs = [
        (
            run.baseline.details["report"],
            run.ablations["custody"].details["report"],
        )
        for run in runs
    ]
    # Span acceptance: the traced custody-on run produced well-formed
    # trees whose custody spans carry the accept/release lifecycle.
    traced = pairs[0][0]
    spans = traced.collector.tracer.spans
    assert spans, "observed run produced no spans"
    assert well_formed_traces(spans) == {}
    custody_spans = [span for span in spans if span.name == "inr.custody"]
    statuses = {span.status for span in custody_spans}
    assert "custody-released" in statuses
    write_spans_jsonl(os.path.join(RESULTS_DIR, "BENCH_dtn_spans.jsonl"), spans)
    write_canonical_json(
        os.path.join(RESULTS_DIR, "BENCH_dtn_metrics.json"),
        traced.collector.metrics_snapshot(),
    )
    assert "observability" in payload
    record_table(
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
            for pair in pairs
            for report in pair
        ],
    )
    # The acceptance bar: at every disruption length custody must
    # strictly raise the delivery ratio, the post-heal invariants
    # (including custody-drained) must hold, and no payload may lose
    # attribution — accepted payloads are all released, lapsed, or
    # evicted by the end of the drain.
    for on, off in pairs:
        assert on.messages_sent == off.messages_sent > 0
        assert on.delivery_ratio > off.delivery_ratio
        assert on.converged_violations == ()
        assert off.converged_violations == ()
        assert on.custody_accepted == (
            on.custody_released
            + on.drops_custody_expired
            + on.drops_custody_evicted
        )
        assert off.custody_accepted == 0
        # Longer partitions stretch the delivery tail: payloads wait in
        # custody for (at most) the disruption plus reconvergence.
        assert on.latency_max <= on.disruption + 20.0
