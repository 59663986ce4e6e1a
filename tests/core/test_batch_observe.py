"""Batched observation of partly cached rows agrees with scalar
observation, plus the axis-construction regression (``n < 2`` with
``hi != lo`` must raise).

"Batched" is the grid engine meeting rows that already hold some cached
points: each such row runs as a grid tile over just the ``U`` lanes it
misses.  "Scalar" is the ``grid_engine=False`` oracle on a cold analyzer.
"""

import pytest

from repro.circuit.defects import FloatingNode, OpenLocation
from repro.core.analysis import (
    ColumnFaultAnalyzer,
    PROBE_SOSES,
    SweepGrid,
    _lin_space,
    _log_space,
    default_grid_for,
)
from repro.core.fault_primitives import parse_sos


# -- axis guards (regression: silent (lo,) truncation) -------------------------

@pytest.mark.parametrize("space", [_log_space, _lin_space])
def test_degenerate_axis_raises_instead_of_truncating(space):
    with pytest.raises(ValueError):
        space(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        space(1.0, 2.0, 0)


@pytest.mark.parametrize("space", [_log_space, _lin_space])
def test_single_point_axis_allowed_when_degenerate_range(space):
    assert space(2.0, 2.0, 1) == (2.0,)


def test_axis_endpoints_preserved():
    assert _lin_space(0.0, 3.3, 12)[0] == 0.0
    assert _lin_space(0.0, 3.3, 12)[-1] == pytest.approx(3.3)
    log = _log_space(1e3, 1e6, 7)
    assert log[0] == pytest.approx(1e3)
    assert log[-1] == pytest.approx(1e6)


def test_sweep_grid_make_rejects_collapsed_axis():
    with pytest.raises(ValueError):
        SweepGrid.make(n_r=1)
    with pytest.raises(ValueError):
        SweepGrid.make(n_u=1)


# -- batched vs scalar equivalence ---------------------------------------------

def _label_grid(analyzer, sos, floating, grid):
    return analyzer.region_map(sos, floating, grid=grid).labels


def _warm_diagonal(analyzer, sos, floating, grid):
    """Observe one point per ``R`` row, walking the ``U`` lanes in turn,
    so every row of the next map over ``grid`` is partly cached."""
    n_u = len(grid.u_values)
    for i, r in enumerate(grid.r_values):
        analyzer.observe(sos, r, grid.u_values[i % n_u], floating)


@pytest.mark.parametrize(
    "location,floating,sos_text",
    [
        (OpenLocation.BL_PRECHARGE_CELLS, FloatingNode.BIT_LINE, "1r1"),
        (OpenLocation.CELL, FloatingNode.CELL, "0r0"),
        (OpenLocation.SENSE_AMPLIFIER, FloatingNode.BIT_LINE, "0w1"),
        (OpenLocation.WORD_LINE, FloatingNode.WORD_LINE, "1r1"),
    ],
)
def test_region_map_batch_equals_scalar(location, floating, sos_text):
    grid = default_grid_for(location, n_r=5, n_u=4)
    sos = parse_sos(sos_text)
    scalar = ColumnFaultAnalyzer(location, grid=grid, grid_engine=False)
    batched = ColumnFaultAnalyzer(location, grid=grid)
    _warm_diagonal(batched, sos, floating, grid)
    assert _label_grid(scalar, sos, floating, grid) == _label_grid(
        batched, sos, floating, grid
    )


def test_full_survey_batch_equals_scalar():
    """End to end: findings and regions match for every plan and probe."""
    location = OpenLocation.BL_SENSEAMP_IO
    grid = default_grid_for(location, n_r=4, n_u=3)

    def fingerprint(analyzer):
        return [
            (f.location, f.floating, f.probe_sos, f.ffm, f.region.labels)
            for f in analyzer.survey()
        ]

    batched = ColumnFaultAnalyzer(location, grid=grid)
    for plan in batched.sweep_plans():
        for text in PROBE_SOSES:
            _warm_diagonal(batched, parse_sos(text), plan, grid)
    scalar = ColumnFaultAnalyzer(location, grid=grid, grid_engine=False)
    assert fingerprint(batched) == fingerprint(scalar)
