"""The committed evaluation's claims: each BENCH_* family, read from the
files under benchmarks/results/, must make the claims it is quoted for.
CI regenerates those files byte-identical, which ties them to the code;
each test reads the fields it judges."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.obs import NO_PARENT, Span
from repro.xp import default_suite, run_spec

from ..conftest import well_formed_traces

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


class TestCommittedArtifacts:
    def test_committed_matrix_covers_every_toggle(self):
        from repro.xp import TOGGLES

        path = RESULTS_DIR / "BENCH_matrix.json"
        payload = json.loads(path.read_text())
        ranked = {row["component"] for row in payload["importance_ranking"]}
        assert ranked == set(TOGGLES)
        assert len(ranked) >= 8

    # The acceptance bars of each BENCH_* family, asserted on the
    # committed files, which CI's byte gate ties to the code.
    def test_committed_span_files_are_well_formed_trees(self):
        paths = sorted(RESULTS_DIR.glob("*_spans.jsonl"))
        assert len(paths) == 3
        for path in paths:
            spans = [Span(**span) for span in committed_spans(path.name)]
            assert spans and well_formed_traces(spans) == {}, path.name

    def test_resilience_raises_success_and_leaves_nothing_hung(self):
        payload = committed("BENCH_availability.json")
        on, off = payload["resilience_on"], payload["resilience_off"]
        assert on["requests_attempted"] == off["requests_attempted"] > 0
        assert on["success_rate"] > off["success_rate"]
        assert on["requests_hung"] == 0 < off["requests_hung"]
        roots = [
            span for span in committed_spans("BENCH_availability_spans.jsonl")
            if span["parent_span_id"] == NO_PARENT
        ]
        assert {span["name"] for span in roots} == {"client.request"}
        assert len(roots) == on["requests_attempted"]

    def test_custody_delivers_more_at_every_disruption_length(self):
        rows = committed("BENCH_dtn.json")["rows"]
        assert [row["disruption"] for row in rows] == [10.0, 30.0, 60.0]
        for row in rows:
            on, off = row["custody_on"], row["custody_off"]
            assert on["messages_sent"] == off["messages_sent"] > 0
            assert off["custody_accepted"] == 0
            assert on["delivery_ratio"] > off["delivery_ratio"]
            assert on["custody_accepted"] == (
                on["custody_released"]
                + on["drops_custody_expired"]
                + on["drops_custody_evicted"]
            )
            assert on["latency_max"] <= row["disruption"] + 20.0
            assert on["converged_violations"] == [] == off["converged_violations"]
        custody = {
            span["status"]
            for span in committed_spans("BENCH_dtn_spans.jsonl")
            if span["name"] == "inr.custody"
        }
        assert "custody-released" in custody

    def test_two_phase_handoff_survives_every_crash(self):
        payload = committed("BENCH_delegation.json")
        for report in payload["matrix"]:
            where = (report["crash_role"], report["crash_phase"])
            if report["crash_role"] is not None:
                assert report["crash_at"] > 0.0, where
            assert report["lost_records"] == 0, where
            assert len(report["authority"]) == 1, where
            assert report["converged_violations"] == [], where
            assert report["always_violations"] == [], where
            assert report["delegations_committed"] >= 1, where
            assert report["window_requests"] > 0, where
            floor = 0.70 if report["crash_role"] == "donor" else 0.95
            assert report["window_success_rate"] >= floor, where
        two_phase = payload["ablation"]["two_phase"]
        single_shot = payload["ablation"]["ablated"]
        assert two_phase["lost_records"] == 0 < single_shot["lost_records"]
        assert two_phase["converged_violations"] == []
        assert two_phase["window_success_rate"] >= 0.95
        assert single_shot["window_success_rate"] <= 0.5
        assert "single-vspace-authority" in single_shot["converged_violations"]
        phases = {
            (span["tags"]["role"], span["tags"]["phase"])
            for span in committed_spans("BENCH_delegation_spans.jsonl")
            if span["name"] == "inr.delegate"
        }
        assert phases >= {
            ("donor", "offer"), ("donor", "transfer"),
            ("donor", "await-commit"), ("donor", "commit"),
            ("recipient", "offer"), ("recipient", "commit"),
        }

    def test_discovery_is_linear_under_ten_ms_per_hop(self):
        payload = committed("BENCH_discovery.json")
        rows, slope = payload["rows"], payload["slope_ms_per_hop"]
        assert [row["hops"] for row in rows] == list(range(1, 10))
        assert slope < 10.0
        assert rows[-1]["discovery_ms"] < 100.0
        intercept = rows[0]["discovery_ms"] - slope * rows[0]["hops"]
        for row in rows:
            assert row["discovery_ms"] == pytest.approx(
                intercept + slope * row["hops"], rel=0.1
            )
        # Discovery traffic carries no trace context: the spec's
        # untraced arm lands every hop at the committed (traced) time.
        # The matrix entry carries summary metrics only, so the rows
        # come from a rerun of that arm (milliseconds of virtual time).
        untraced = run_spec(default_suite()["fig14-discovery"]).ablations["obs_tracing"]
        assert [asdict(row) for row in untraced.details["rows"]] == rows

    def test_routing_cost_matches_the_paper(self):
        # The 250-name point's 3.1 and 9.8 ms/packet are
        # tests/experiments/test_figures.py::TestFig15Shape's.
        payload = committed("BENCH_routing.json")
        rows = {row["names_in_vspace"]: row for row in payload["rows"]}
        assert sorted(rows) == [250, 1000, 2500, 5000]
        # The traced burst: each of the 100 packets forwarded at one
        # INR and delivered at the next, none dropped.
        traced = payload["observability"]["span_summary"]
        assert traced["traces"] == 100
        assert traced["by_name"]["inr.hop"]["count"] == 200
        assert traced["drop_attribution"] == {}
        counters = payload["observability"]["metrics"]["counters"]
        assert counters["inr.packets_forwarded"]["inr=inr-a"] == 100
        assert counters["inr.packets_delivered_locally"]["inr=inr-b"] == 100
        assert rows[5000]["local_ms"] / 100 == pytest.approx(19.0, rel=0.15)
        for row in rows.values():
            assert row["remote_same_vspace_ms"] == pytest.approx(
                rows[250]["remote_same_vspace_ms"], rel=0.05
            )
            assert row["remote_other_vspace_ms"] == pytest.approx(381, rel=0.1)

    def test_memo_serves_repeats_from_one_miss_per_query(self):
        # Its >= 2x speedup is wall clock: ``perf_smoke.py`` gates it on
        # a fresh measurement.
        (entry,) = [e for e in matrix_payload()["suite"] if e["name"] == "fig12-memo"]
        metrics = entry["baseline"]["metrics"]
        assert metrics["memo_misses"] == 64  # the distinct queries
        assert metrics["memo_invalidations"] == 0 < metrics["refreshes"]


def committed(name: str) -> dict:
    return json.loads((RESULTS_DIR / name).read_text())


def committed_spans(name: str) -> list:
    return [json.loads(line) for line in (RESULTS_DIR / name).read_text().splitlines()]


def matrix_payload() -> dict:
    return committed("BENCH_matrix.json")
