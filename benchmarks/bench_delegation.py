"""Crash-safe vspace delegation — the two-phase handoff under fire.

An overloaded resolver must hand a virtual space to a freshly spawned
INR without losing a name, no matter which side crashes at which phase
of the handoff. This benchmark runs the full crash matrix (donor and
recipient each crashed at OFFER, mid-TRANSFER, AWAIT-COMMIT and the
recipient's COMMITTED window, with an operator restart shortly after)
plus the controlled ablation: the same recipient crash with *no*
operator intervention against the two-phase protocol and against the
paper-era single-shot transfer. Two-phase self-heals — the donor never
stopped serving, aborts, and retries onto a spare; single-shot orphans
the vspace outright.

Emits ``BENCH_delegation.json`` (the matrix and the ablation). The
ablation is engine-driven — the same ``delegation`` spec the committed
``BENCH_matrix.json`` runs, whose baseline arm is the two-phase
protocol and whose ``delegation_two_phase`` arm is the single-shot
transfer. The matrix's baseline run is traced: ``inr.delegate`` spans
(one per phase transition per side) land in
``BENCH_delegation_spans.jsonl``.
"""

import os

from _report import RESULTS_DIR, record_table

from repro.chaos import (
    fingerprint,
    run_delegation_matrix,
    write_bench_delegation_json,
)
from repro.obs import well_formed_traces, write_canonical_json, write_spans_jsonl
from repro.xp import default_suite, run_spec

SEED = 7

#: The committed matrix entry itself (seed 7 too), run IDs included.
ABLATION_SPEC = default_suite()["delegation-crash"]

#: The dual-serving guarantee: lookups issued while a handoff is in
#: flight keep succeeding, because the donor answers until COMMIT.
WINDOW_SUCCESS_FLOOR = 0.95

#: Donor-crash runs kill the vspace's only authority outright for the
#: restart gap — unavailability no handoff protocol can mask. The bar
#: there is recovery, not continuity.
DONOR_CRASH_FLOOR = 0.70


def test_delegation_crash_matrix_and_ablation(benchmark):
    matrix, ablation_run = benchmark.pedantic(
        lambda: (
            run_delegation_matrix(seed=SEED, observe_baseline=True),
            run_spec(ABLATION_SPEC, timing=False),
        ),
        rounds=1,
        iterations=1,
    )
    payload = write_bench_delegation_json(
        os.path.join(RESULTS_DIR, "BENCH_delegation.json"), matrix, ablation_run
    )

    # Span acceptance: the traced baseline produced well-formed trees
    # carrying the full delegation phase lifecycle on both sides.
    traced = matrix[0]
    spans = traced.collector.tracer.spans
    assert spans, "observed run produced no spans"
    assert well_formed_traces(spans) == {}
    delegate_spans = [span for span in spans if span.name == "inr.delegate"]
    phases = {
        (span.tags.get("role"), span.tags.get("phase"))
        for span in delegate_spans
    }
    for expected in (
        ("donor", "offer"),
        ("donor", "transfer"),
        ("donor", "await-commit"),
        ("donor", "commit"),
        ("recipient", "offer"),
        ("recipient", "commit"),
    ):
        assert expected in phases, f"missing delegation span {expected}"
    write_spans_jsonl(
        os.path.join(RESULTS_DIR, "BENCH_delegation_spans.jsonl"), spans
    )
    write_canonical_json(
        os.path.join(RESULTS_DIR, "BENCH_delegation_metrics.json"),
        traced.collector.metrics_snapshot(),
    )
    assert "observability" in payload

    record_table(
        "Delegation under fire: two-phase handoff crash matrix "
        "(sustained update overload; crash + restart at each phase)",
        ["crash", "phase", "handoffs", "committed", "aborted", "rollbacks",
         "window ok", "overall ok", "lost", "authority"],
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
    )
    on = ablation_run.baseline.details["report"]
    off = ablation_run.ablations["delegation_two_phase"].details["report"]
    record_table(
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
    )

    # ------------------------------------------------------------------
    # The acceptance bar.
    # ------------------------------------------------------------------
    for report in matrix:
        # Crash safety: whatever crashed, wherever, after convergence no
        # name record is lost, exactly one live INR routes each vspace,
        # no handoff is left in flight, and the always-invariants held
        # at every sample throughout.
        if report.crash_role is not None:
            # The seeded crash actually fired — a phase the watcher
            # never observes would silently test nothing.
            assert report.crash_at > 0.0, (report.crash_role,
                                           report.crash_phase)
        assert report.lost_records == 0, (report.crash_role, report.crash_phase)
        assert len(report.authority) == 1, (report.crash_role, report.crash_phase)
        assert report.converged_violations == (), (
            report.crash_role, report.crash_phase, report.converged_violations
        )
        assert report.always_violations == ()
        assert report.delegations_committed >= 1
        assert report.window_requests > 0
        floor = (
            DONOR_CRASH_FLOOR
            if report.crash_role == "donor"
            else WINDOW_SUCCESS_FLOOR
        )
        assert report.window_success_rate >= floor, (
            report.crash_role, report.crash_phase, report.window_success_rate
        )
    # The ablation: two-phase holds the dual-serving floor and loses
    # nothing with no operator in the loop; single-shot collapses —
    # every record lost, no authority, lookups dead in the window.
    assert on.window_success_rate >= WINDOW_SUCCESS_FLOOR
    assert on.lost_records == 0 and on.converged_violations == ()
    assert off.lost_records > 0
    assert off.window_success_rate <= 0.5
    assert "single-vspace-authority" in off.converged_violations
    # Reproducibility: the whole matrix is seed-deterministic.
    rerun = run_delegation_matrix(seed=SEED)[1]
    assert fingerprint(rerun) == fingerprint(matrix[1])
