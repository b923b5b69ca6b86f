"""Tests for the calibrated resolver cost model."""

import pytest

from repro.resolver import CostModel, DEFAULT_COSTS


class TestCalibration:
    """The constants must stay consistent with the paper's measured
    behaviour; these tests pin the calibration targets of Section 5."""

    def test_fig8_saturation_point(self):
        """CPU hits 100% between 10k and 15k names per 15 s refresh."""
        names_at_saturation = 15.0 / DEFAULT_COSTS.update_per_name
        assert 10_000 < names_at_saturation < 15_000

    def test_fig12_lookup_rate(self):
        """Their tree sustains 700-900 lookups/s -> ~1.1-1.4 ms each."""
        assert 1.0e-3 <= DEFAULT_COSTS.lookup <= 1.5e-3

    def test_fig15_remote_case(self):
        """Remote same-vspace forwarding ~9.8 ms per packet."""
        per_packet = DEFAULT_COSTS.lookup + DEFAULT_COSTS.forward
        assert per_packet == pytest.approx(9.8e-3, rel=0.05)

    def test_fig15_local_case_at_250_names(self):
        per_packet = DEFAULT_COSTS.lookup + DEFAULT_COSTS.local_delivery(250)
        assert per_packet == pytest.approx(3.1e-3, rel=0.1)

    def test_fig15_local_case_at_5000_names(self):
        per_packet = DEFAULT_COSTS.lookup + DEFAULT_COSTS.local_delivery(5000)
        assert per_packet == pytest.approx(19e-3, rel=0.1)

    def test_fig15_cross_vspace_burst(self):
        """100 packets at ~3.8 ms each -> ~381 ms per burst."""
        assert 100 * DEFAULT_COSTS.vspace_forward == pytest.approx(0.381, rel=0.05)

    def test_fig14_slope_under_10ms(self):
        """Per-hop: lookup + graft + update processing must be < 10 ms
        even before the link delay."""
        per_hop_cpu = (
            DEFAULT_COSTS.lookup
            + DEFAULT_COSTS.graft
            + DEFAULT_COSTS.update_batch(1)
        )
        assert per_hop_cpu < 10e-3


class TestModelMechanics:
    def test_update_batch_scales_linearly(self):
        model = CostModel()
        assert model.update_batch(10) == pytest.approx(
            model.receive + 10 * model.update_per_name
        )

    def test_artifact_switch(self):
        with_artifact = CostModel()
        without = CostModel(local_delivery_per_name=0.0)
        assert with_artifact.local_delivery(5000) > with_artifact.local_delivery(100)
        assert without.local_delivery(5000) == without.local_delivery(100)
        assert without.local_delivery(5000) == without.local_delivery_base
