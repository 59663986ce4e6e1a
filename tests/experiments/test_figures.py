"""Tests for the Fig. 3 / Fig. 4 experiment harnesses (coarse grids)."""

import pytest

from repro.core.ffm import FFM
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4


@pytest.fixture(scope="module")
def fig3():
    return run_fig3(n_r=10, n_u=8)


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(n_r=12, n_u=8)


@pytest.fixture(scope="module")
def fig4_default():
    """The default 20x12 grid, whose anchors EXPERIMENTS.md records."""
    return run_fig4()


class TestFig3:
    def test_all_claims_hold(self, fig3):
        assert fig3.report.all_hold, fig3.report.render()

    def test_rdf1_is_partial(self, fig3):
        assert fig3.partial_map.is_partial_label(FFM.RDF1)

    def test_fault_only_at_low_voltage(self, fig3):
        assert fig3.max_fault_voltage is not None
        assert fig3.max_fault_voltage < 2.5

    def test_completed_map_u_independent(self, fig3):
        assert fig3.completed_map.is_u_independent(FFM.RDF1)
        assert not fig3.completed_map.is_partial_label(FFM.RDF1)

    def test_report_renders(self, fig3):
        text = fig3.report.render()
        assert "Figure 3" in text and "RDF1" in text


class TestFig4:
    def test_all_claims_hold(self, fig4):
        assert fig4.report.all_hold, fig4.report.render()

    def test_threshold_monotone_in_u(self, fig4):
        assert fig4.r_at_high_u is not None
        if fig4.r_at_low_u is not None:
            assert fig4.r_at_high_u < fig4.r_at_low_u

    def test_threshold_ratio_order_of_the_papers(self, fig4_default):
        """Paper: 300k/150k = 2x between U=0 and U=1.6; here 158k/91k."""
        low, high = fig4_default.r_at_low_u, fig4_default.r_at_high_u
        assert low is not None and high is not None
        assert low == pytest.approx(157_937.36, rel=1e-6)
        assert high == pytest.approx(90_788.39, rel=1e-6)
        assert 1.2 < low / high < 4.0

    def test_completed_flat(self, fig4):
        assert fig4.r_completed is not None
        assert fig4.completed_map.is_u_independent(FFM.RDF0)
