"""Availability under chaos — request resilience on vs off.

The paper's robustness claims (§2.2, §2.4) are about the *resolver
mesh*: soft state heals. This benchmark measures robustness where the
application feels it — at the request boundary. Engine-driven: the
``availability`` workload runs steady early-binding lookup traffic
through one seeded fault plan (INR crashes with restarts, lossy links,
a mesh partition, CPU overload); the baseline arm keeps the client
resilience layer (retries/backoff, deadlines, failover) and the
``resilience`` ablation arm is plain fire-and-forget. Same seed, same
faults — the difference is purely what the resilience machinery buys:
higher success rate and zero permanently-hung replies, paid for with
retry traffic and a longer success tail (retried requests succeed late
instead of never).

Emits ``BENCH_availability.json`` with both runs plus the success-rate
delta for trend tracking across sessions. The resilience-on run is
traced: every lookup's hop-by-hop span tree lands in
``BENCH_availability_spans.jsonl`` and, for ``chrome://tracing`` /
Perfetto, ``BENCH_availability_trace.json``; the artifact JSON embeds
the harvested metrics and span summary under ``observability``.
"""

import math
import os
from dataclasses import replace

from _report import RESULTS_DIR, record_table

from repro.chaos import write_bench_availability_json
from repro.obs import (
    well_formed_traces,
    write_canonical_json,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.xp import default_suite, run_spec

#: The committed ``BENCH_matrix.json`` entry, restricted to the
#: resilience arm (the full matrix also ablates tracing; this driver
#: regenerates the on/off artifact).
SPEC = replace(default_suite()["availability-chaos"], ablations=("resilience",))


def _mttr_cell(report, kind):
    stats = report.mttr.get(kind)
    return f"{stats['p100']:.2f}" if stats else "-"


def test_availability_resilience_on_vs_off(benchmark):
    run = benchmark.pedantic(
        lambda: run_spec(SPEC, timing=False), rounds=1, iterations=1
    )
    resilient = run.baseline.details["report"]
    bare = run.ablations["resilience"].details["report"]
    payload = write_bench_availability_json(
        os.path.join(RESULTS_DIR, "BENCH_availability.json"), resilient, bare
    )
    # Span-tree acceptance: every traced lookup forms a well-formed tree
    # (single client.request root, every hop span parented inside it),
    # and the artifacts are written for offline inspection.
    spans = resilient.collector.tracer.spans
    assert spans, "observed run produced no spans"
    assert well_formed_traces(spans) == {}
    roots = [span for span in spans if span.is_root]
    assert all(span.name == "client.request" for span in roots)
    assert len(roots) == resilient.requests_attempted
    write_spans_jsonl(
        os.path.join(RESULTS_DIR, "BENCH_availability_spans.jsonl"), spans
    )
    write_chrome_trace(
        os.path.join(RESULTS_DIR, "BENCH_availability_trace.json"), spans
    )
    # The standalone metrics snapshot — the artifact the determinism
    # contract promises is byte-identical across same-seed runs.
    write_canonical_json(
        os.path.join(RESULTS_DIR, "BENCH_availability_metrics.json"),
        resilient.collector.metrics_snapshot(),
    )
    assert "observability" in payload
    record_table(
        "Availability: request resilience on vs off "
        "(4 INRs, crash+restart / partition / lossy links / CPU overload)",
        ["resilience", "requests", "success rate", "failed", "hung",
         "p50 (s)", "p99 (s)", "retries", "failovers", "crash MTTR p100 (s)"],
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
    )
    # The acceptance bar: under identical seeded faults the resilience
    # layer must strictly raise the success rate, and no Reply may be
    # left permanently pending when it is on.
    assert resilient.requests_attempted == bare.requests_attempted > 0
    assert resilient.success_rate > bare.success_rate
    assert resilient.requests_hung == 0
    # Fire-and-forget under loss leaves replies hanging forever — the
    # failure mode the Reply error path exists to eliminate.
    assert bare.requests_hung > 0
    assert math.isfinite(resilient.latency_p99)
    assert payload["success_rate_delta"] > 0
