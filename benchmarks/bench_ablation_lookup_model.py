"""Ablation — the Section 5.1.1 analytic model vs measurements.

Checks that measured LOOKUP-NAME times (memo off, so every lookup
walks the recursion) track the fitted T(d) = Theta(n_a^d (t + b)) model
as the name-specifier depth grows.
"""

from _report import record_table

from repro.analysis import relative_error
from repro.experiments.ablations import run_lookup_model_check


def test_ablation_lookup_model(benchmark):
    rows, fitted_t_us, fitted_b_us = benchmark.pedantic(
        lambda: run_lookup_model_check(
            depths=(1, 2, 3, 4, 5), names_per_tree=300, lookups=400
        ),
        rounds=1,
        iterations=1,
    )
    record_table(
        "Ablation: T(d) model vs measured lookup time "
        f"(fit t={fitted_t_us:.2f}us, b={fitted_b_us:.2f}us)",
        ["depth d", "measured (us)", "model (us)"],
        [
            (row.depth, f"{row.measured_us:.1f}", f"{row.predicted_us:.1f}")
            for row in rows
        ],
    )
    # Growth is super-linear in d (the n_a^d term).
    assert rows[-1].measured_us > 3 * rows[0].measured_us
    # The fitted model tracks the deeper measurements well.
    for row in rows[1:]:
        assert relative_error(row.predicted_us, row.measured_us) < 0.5
