"""Tests for the anchor-calibration utility."""

import pytest

from repro.circuit.calibration import (
    PAPER_R_HIGH_U,
    PAPER_R_LOW_U,
    CalibrationResult,
    calibrate_to_paper,
    measure_fig4_anchors,
)
from repro.circuit.technology import default_technology


@pytest.fixture(scope="module")
def result():
    return calibrate_to_paper()


class TestCalibration:
    def test_base_technology_exhibits_anchors(self):
        low, high = measure_fig4_anchors(default_technology())
        assert low is not None and high is not None
        assert high < low          # the Fig. 4 monotonicity

    def test_converges_close_to_paper(self, result):
        assert result.low_error <= 0.25
        assert result.high_error <= 0.25
        # The anchors EXPERIMENTS.md records (257 / 139 kOhm), both grid
        # points of the calibration sweep.
        assert result.r_low_u == pytest.approx(257_308.77, rel=1e-6)
        assert result.r_high_u == pytest.approx(139_247.67, rel=1e-6)

    def test_converges_quickly(self, result):
        assert result.iterations == 2

    def test_preserves_region_shape(self, result):
        low, high = measure_fig4_anchors(result.technology)
        assert low is not None and high is not None
        assert high < low

    def test_only_timing_knobs_move(self, result):
        base = default_technology()
        tech = result.technology
        assert tech.c_cell == base.c_cell
        assert tech.v_reference == base.v_reference
        assert tech.sa_offset == base.sa_offset
        assert tech.t_share != base.t_share or tech.t_write != base.t_write

    def test_errors_are_relative(self):
        tech = default_technology()
        r = CalibrationResult(tech, PAPER_R_LOW_U, PAPER_R_HIGH_U, 1)
        assert r.low_error == 0.0 and r.high_error == 0.0
