"""Tests for the Section 5.1.1 analytic lookup model."""

import pytest

from repro.xp.experiments.lookup_model import fit_parameters, lookup_time_closed_form


def lookup_time_recurrence(d: int, n_a: int, t: float, b: float) -> float:
    """T(d) by direct recursion: the paper's recurrence, the oracle the
    closed form is checked against."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    if d == 0:
        return b
    return n_a * (t + lookup_time_recurrence(d - 1, n_a, t, b))


class TestRecurrence:
    def test_base_case(self):
        assert lookup_time_recurrence(0, 2, 1.0, 5.0) == 5.0

    def test_one_level(self):
        # T(1) = n_a (t + b)
        assert lookup_time_recurrence(1, 2, 1.0, 5.0) == 12.0

    @pytest.mark.parametrize("d", range(0, 6))
    @pytest.mark.parametrize("n_a", [1, 2, 3])
    def test_closed_form_equals_recurrence(self, d, n_a):
        t, b = 0.7, 2.3
        assert lookup_time_closed_form(d, n_a, t, b) == pytest.approx(
            lookup_time_recurrence(d, n_a, t, b)
        )

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            lookup_time_recurrence(-1, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            lookup_time_closed_form(-1, 2, 1.0, 1.0)

    def test_growth_is_exponential_in_depth(self):
        shallow = lookup_time_closed_form(2, 2, 1.0, 1.0)
        deep = lookup_time_closed_form(4, 2, 1.0, 1.0)
        assert deep / shallow > 3.0  # ~n_a^2


class TestFitting:
    def test_exact_data_recovers_parameters(self):
        t_true, b_true = 0.4, 1.9
        observations = [
            (d, 2, lookup_time_closed_form(d, 2, t_true, b_true))
            for d in (1, 2, 3, 4)
        ]
        fit = fit_parameters(observations)
        assert fit.t == pytest.approx(t_true, rel=1e-6)
        assert fit.b == pytest.approx(b_true, rel=1e-6)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_noisy_data_still_predicts_well(self):
        """The t and b columns are nearly collinear (both ~ n_a^d), so
        individual parameters are ill-conditioned under noise — but the
        *predictions* stay accurate, which is what the model check in
        the ablation benchmark relies on."""
        t_true, b_true = 0.4, 1.9
        observations = []
        for index, d in enumerate((1, 2, 3, 4, 5)):
            noise = 1.0 + (0.05 if index % 2 else -0.05)
            observations.append(
                (d, 2, lookup_time_closed_form(d, 2, t_true, b_true) * noise)
            )
        fit = fit_parameters(observations)
        for d in (1, 2, 3, 4, 5):
            assert lookup_time_closed_form(d, 2, fit.t, fit.b) == pytest.approx(
                lookup_time_closed_form(d, 2, t_true, b_true), rel=0.2
            )

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError):
            fit_parameters([(1, 2, 1.0)])

