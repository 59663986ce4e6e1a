"""Tests for the escape analysis (small populations)."""

import pytest

from repro.campaign.corners import VDD_SCALED_FIELDS
from repro.circuit.defects import OpenLocation
from repro.circuit.technology import Technology
from repro.experiments.escapes import _screen, run_escapes, sample_defects
from repro.march.library import (
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_PF,
    MARCH_PF_PLUS,
    MATS_PLUS,
)
from repro.march.simulator import rail_presets


class TestSampling:
    def test_deterministic_with_seed(self):
        assert sample_defects(10, seed=1) == sample_defects(10, seed=1)

    def test_respects_location_ranges(self):
        from repro.core.analysis import _R_RANGES

        for defect in sample_defects(50, seed=3):
            lo, hi = _R_RANGES[defect.location]
            assert lo <= defect.resistance <= hi

    def test_location_filter(self):
        defects = sample_defects(
            8, seed=2, locations=(OpenLocation.CELL,)
        )
        assert all(d.location is OpenLocation.CELL for d in defects)


class TestScreening:
    def test_strong_open_is_flagged(self):
        from repro.circuit.defects import OpenDefect

        defect = OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 1e6)
        assert _screen(MARCH_PF_PLUS, defect, 0.0, None, 3)

    def test_healthy_range_passes(self):
        from repro.circuit.defects import OpenDefect

        defect = OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 3e3)
        assert not _screen(MATS_PLUS, defect, 0.0, None, 3)

    def test_presets_are_the_rails_of_a_scaled_supply(self, monkeypatch):
        from repro.experiments import escapes

        base = Technology()
        corner = base.scaled(
            **{name: getattr(base, name) * 0.8 for name in VDD_SCALED_FIELDS}
        )
        assert corner.vdd != base.vdd
        assert rail_presets(None) == (0.0, base.vdd)
        seen = []
        real = escapes.run_march_lanes

        def spy(tests, defects, presets, *args, **kwargs):
            seen.append((tuple(tests), tuple(presets)))
            return real(tests, defects, presets, *args, **kwargs)

        monkeypatch.setattr(escapes, "run_march_lanes", spy)
        run_escapes(
            n_defects=3, technology=corner, tests=(MATS_PLUS, MARCH_B),
            jobs=1,
        )
        assert seen == [((MATS_PLUS, MARCH_B), (0.0, corner.vdd))]


ARMING_FREE = (MATS_PLUS, MARCH_B, MARCH_PF)


class TestTestSubsets:
    @pytest.mark.parametrize("tests", [
        (MATS_PLUS,), (MARCH_C_MINUS,), (MARCH_PF_PLUS,),
        (MARCH_B, MARCH_PF), (MARCH_C_MINUS, MARCH_PF_PLUS),
    ], ids=lambda tests: "+".join(t.name for t in tests))
    def test_any_subset_of_the_default_tests_reports(self, tests):
        result = run_escapes(n_defects=6, tests=tests)
        assert set(result.escape_rates) == {t.name for t in tests}
        claims = {claim.name for claim in result.report.claims}
        assert ("March PF+ screens the population" in claims) == (
            MARCH_PF_PLUS in tests
        )
        assert (
            "tests without the arming structure ship defective parts"
            in claims
        ) == any(t in ARMING_FREE for t in tests)
        assert "a meaningful defect population is visible at all" in claims


@pytest.mark.slow
class TestExperiment:
    def test_small_population(self):
        result = run_escapes(n_defects=30, seed=7)
        assert result.escape_rates["March PF+"] <= 0.05
        assert result.field_failures >= 5

    def test_grid_and_scalar_reports_are_identical(self):
        grid = run_escapes(n_defects=30)
        scalar = run_escapes(n_defects=30, grid_engine=False)
        assert grid.report.render() == scalar.report.render()

    def test_report_is_identical_for_any_jobs(self):
        kwargs = dict(n_defects=16, seed=5, tests=(MATS_PLUS, MARCH_PF_PLUS))
        scalar = run_escapes(grid_engine=False, **kwargs).report.render()
        for jobs in (1, 2, None):
            result = run_escapes(jobs=jobs, **kwargs)
            assert result.report.render() == scalar, jobs
