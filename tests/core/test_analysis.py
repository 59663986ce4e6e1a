"""Unit tests for the (R_def, U)-plane fault analysis."""

import pytest

from repro import telemetry
from repro.circuit.defects import FloatingNode, OpenLocation
from repro.core.analysis import (
    ColumnFaultAnalyzer,
    PROBE_SOSES,
    SweepGrid,
    default_grid_for,
)
from repro.core.fault_primitives import parse_sos
from repro.core.ffm import FFM


@pytest.fixture(scope="module")
def open4():
    return ColumnFaultAnalyzer(
        OpenLocation.BL_PRECHARGE_CELLS,
        grid=SweepGrid.make(r_min=3e3, r_max=1e7, n_r=6, n_u=5),
    )


class TestSweepGrid:
    def test_make_shapes(self):
        grid = SweepGrid.make(n_r=5, n_u=4)
        assert len(grid.r_values) == 5
        assert len(grid.u_values) == 4

    def test_log_spacing(self):
        grid = SweepGrid.make(r_min=1e3, r_max=1e5, n_r=3)
        assert grid.r_values == pytest.approx((1e3, 1e4, 1e5))

    def test_linear_spacing(self):
        grid = SweepGrid.make(u_min=0.0, u_max=2.0, n_u=3)
        assert grid.u_values == pytest.approx((0.0, 1.0, 2.0))

    def test_coarser(self):
        grid = SweepGrid.make(n_r=6, n_u=6)
        coarse = grid.coarser(2, 3)
        assert len(coarse.r_values) == 3
        assert len(coarse.u_values) == 2

    def test_default_grid_per_location(self):
        for location in OpenLocation:
            grid = default_grid_for(location, n_r=4, n_u=3)
            assert len(grid.r_values) == 4
            assert grid.u_values[-1] == pytest.approx(3.3)

    def test_word_line_range_is_higher(self):
        wl = default_grid_for(OpenLocation.WORD_LINE)
        cell = default_grid_for(OpenLocation.CELL)
        assert wl.r_values[0] > cell.r_values[0]


class TestProbes:
    def test_probe_space_is_the_papers(self):
        assert PROBE_SOSES == ("0", "1", "0w0", "0w1", "1w0", "1w1",
                               "0r0", "1r1")

    def test_probes_parse_and_are_consistent(self):
        for text in PROBE_SOSES:
            assert parse_sos(text).is_consistent()


class TestObserve:
    def test_strong_open_low_bl_gives_rdf1(self, open4):
        obs = open4.observe(parse_sos("1r1"), 1e7, 0.0, FloatingNode.BIT_LINE)
        assert obs.is_faulty
        assert obs.ffm is FFM.RDF1
        assert obs.read_value == 0
        assert obs.faulty_value == 0

    def test_strong_open_high_bl_is_benign(self, open4):
        obs = open4.observe(parse_sos("1r1"), 1e7, 3.3, FloatingNode.BIT_LINE)
        assert not obs.is_faulty

    def test_weak_open_is_benign(self, open4):
        obs = open4.observe(parse_sos("1r1"), 3e3, 0.0, FloatingNode.BIT_LINE)
        assert not obs.is_faulty

    def test_observation_is_cached(self, open4):
        args = (parse_sos("1r1"), 1e7, 0.0, FloatingNode.BIT_LINE)
        assert open4.observe(*args) is open4.observe(*args)

    def test_accepts_node_tuples(self, open4):
        obs = open4.observe(
            parse_sos("1r1"), 1e7, 0.0, (FloatingNode.BIT_LINE,)
        )
        assert obs.ffm is FFM.RDF1


class TestRegionMap:
    def test_region_map_dimensions(self, open4):
        m = open4.region_map(parse_sos("1r1"), FloatingNode.BIT_LINE)
        assert len(m.r_values) == 6
        assert len(m.u_values) == 5

    def test_rdf1_partial(self, open4):
        m = open4.region_map(parse_sos("1r1"), FloatingNode.BIT_LINE)
        assert FFM.RDF1 in m.observed_labels
        assert m.is_partial_label(FFM.RDF1)

    def test_fp_labels(self, open4):
        m = open4.region_map(
            parse_sos("1r1"), FloatingNode.BIT_LINE, label="fp"
        )
        faulty = [l for row in m.labels for l in row if l is not None]
        assert faulty and all(fp.is_faulty() for fp in faulty)

    def test_bad_label_kind_rejected(self, open4):
        with pytest.raises(ValueError):
            open4.region_map(parse_sos("1r1"), FloatingNode.BIT_LINE,
                             label="bogus")


class TestSurvey:
    def test_survey_finds_rdf1(self, open4):
        findings = open4.survey(FloatingNode.BIT_LINE, probes=("1r1",))
        ffms = {f.ffm for f in findings}
        assert FFM.RDF1 in ffms

    def test_survey_default_uses_section2_rules(self):
        analyzer = ColumnFaultAnalyzer(
            OpenLocation.WORD_LINE,
            grid=SweepGrid.make(r_min=1e7, r_max=1e9, n_r=4, n_u=4),
        )
        findings = analyzer.survey(probes=("0",))
        assert all(
            f.floating == (FloatingNode.WORD_LINE,) for f in findings
        )
        assert {f.ffm for f in findings} == {FFM.SF0}

    def test_sweep_plans_single_node(self, open4):
        assert open4.sweep_plans() == ((FloatingNode.BIT_LINE,),)

    def test_sweep_plans_joint_for_open8(self):
        analyzer = ColumnFaultAnalyzer(OpenLocation.BL_SENSEAMP_IO)
        plans = analyzer.sweep_plans()
        assert (FloatingNode.BIT_LINE,) in plans
        assert (FloatingNode.OUTPUT_BUFFER,) in plans
        assert (FloatingNode.BIT_LINE, FloatingNode.OUTPUT_BUFFER) in plans


class TestSemantics:
    def test_cell_sweep_initializes_via_write(self):
        """For cell opens, U is the pre-initialization cell voltage."""
        analyzer = ColumnFaultAnalyzer(
            OpenLocation.CELL,
            grid=SweepGrid.make(r_min=3e4, r_max=1e6, n_r=4, n_u=4),
        )
        # A healthy-resistance cell open at high U: the init w0 succeeds,
        # so 0r0 is benign even though U > the state threshold.
        obs = analyzer.observe(parse_sos("0r0"), 3e4, 3.3, FloatingNode.CELL)
        assert not obs.is_faulty

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            ColumnFaultAnalyzer(OpenLocation.CELL, n_rows=1)

    def test_row_mapping(self, open4):
        assert open4._row_of("v") == open4.victim_row
        assert open4._row_of("BL") != open4.victim_row


# -- observe_grid over a partly cached tile -------------------------------------

#: Warm points ``(row, lane)`` on a 5x4 tile: rows 0 and 2 miss the same
#: lanes (one two-member tile), row 3 misses two lanes (a one-member
#: tile), row 4 is fully cached (no tile), row 1 misses everything.
_WARM = ((0, 1), (2, 1), (3, 0), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3))


@pytest.mark.parametrize(
    "location,floating,sos_text",
    [
        (OpenLocation.BL_PRECHARGE_CELLS, FloatingNode.BIT_LINE, "1r1"),
        (OpenLocation.CELL, FloatingNode.CELL, "0r0"),
        (OpenLocation.WORD_LINE, FloatingNode.WORD_LINE, "1r1"),
    ],
)
def test_observe_grid_runs_one_tile_per_missing_lane_set(
    location, floating, sos_text
):
    grid = default_grid_for(location, n_r=5, n_u=4)
    sos = parse_sos(sos_text)
    r_values, u_values = grid.r_values, grid.u_values
    analyzer = ColumnFaultAnalyzer(location, grid=grid)
    warm = {
        (i, j): analyzer.observe(sos, r_values[i], u_values[j], floating)
        for i, j in _WARM
    }
    missing_sets = {
        tuple(j for j in range(len(u_values)) if (i, j) not in warm)
        for i in range(len(r_values))
    } - {()}
    assert len(missing_sets) == 3
    telemetry.enable()
    telemetry.reset()
    try:
        tile = analyzer.observe_grid(sos, r_values, u_values, floating)
        counters = telemetry.get_metrics().snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    oracle = ColumnFaultAnalyzer(location, grid=grid, grid_engine=False)
    expected = oracle.observe_grid(sos, r_values, u_values, floating)
    for i, row in enumerate(tile):
        for j, obs in enumerate(row):
            if (i, j) in warm:
                assert obs is warm[(i, j)]
            else:
                assert obs == expected[i][j]
    assert counters.get("analyzer.grid_tiles", 0) == len(missing_sets)
    assert counters.get("analyzer.sos_executions", 0) == (
        len(r_values) * len(u_values) - len(warm)
    )
