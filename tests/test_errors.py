"""Spec validation and the structured error taxonomy.

Property tests: whatever malformed value Hypothesis finds, ``validate()``
must reject it with a :class:`SpecValidationError` whose message names
the spec, the field and the legal range — never a bare TypeError or a
silently accepted spec.
"""

import math
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.circuit.defects import OpenDefect, OpenLocation
from repro.circuit.technology import Technology, default_technology
from repro.core.analysis import SweepGrid
from repro.errors import (
    InjectionError,
    QuarantinedPointError,
    ReproError,
    SolverDivergenceError,
    SpecValidationError,
)
from repro.parallel import AnalyzerSpec


class TestTaxonomy:
    def test_every_error_is_a_repro_error(self):
        for exc_type in (
            SpecValidationError,
            SolverDivergenceError,
            QuarantinedPointError,
            InjectionError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_spec_validation_error_is_a_value_error(self):
        # Pre-taxonomy call sites catch ValueError; the subclassing keeps
        # them working.
        assert issubclass(SpecValidationError, ValueError)

    def test_spec_validation_message_is_actionable(self):
        err = SpecValidationError(
            "Technology", "c_cell", -1.0, "> 0 F", hint="capacitance"
        )
        text = str(err)
        assert "Technology.c_cell" in text
        assert "-1.0" in text
        assert "> 0 F" in text
        assert "capacitance" in text

    def test_solver_divergence_carries_guard_and_context(self):
        err = SolverDivergenceError("rail", "escaped hull", phase="sense")
        assert err.guard == "rail"
        assert err.context["phase"] == "sense"
        assert "rail" in str(err) and "phase=sense" in str(err)


class TestTechnologyValidate:
    @given(bad=st.floats(max_value=0.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_rejects_nonpositive_capacitance(self, bad):
        tech = replace(default_technology(), c_cell=bad)
        with pytest.raises(SpecValidationError) as exc_info:
            tech.validate()
        assert "c_cell" in str(exc_info.value)

    @given(
        field=st.sampled_from(["vdd", "c_bl_cells", "r_access", "t_sense"]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=20, deadline=None)
    def test_rejects_non_finite_fields(self, field, bad):
        tech = replace(default_technology(), **{field: bad})
        with pytest.raises(SpecValidationError) as exc_info:
            tech.validate()
        assert field in str(exc_info.value)

    def test_default_technology_is_valid(self):
        assert default_technology().validate() is not None

    def test_level_outside_supply_rejected(self):
        tech = replace(default_technology(), v_precharge=9.9)
        with pytest.raises(SpecValidationError):
            tech.validate()


class TestOpenDefectValidate:
    @given(bad=st.sampled_from([math.nan, -math.inf]) | st.floats(
        max_value=-1e-9, allow_nan=False, allow_infinity=False
    ))
    @settings(max_examples=30, deadline=None)
    def test_rejects_non_finite_or_negative_resistance(self, bad):
        # NaN sneaks past __post_init__'s `< 0` comparison; validate()
        # must still reject it.
        defect = OpenDefect.__new__(OpenDefect)
        object.__setattr__(defect, "location", OpenLocation.CELL)
        object.__setattr__(defect, "resistance", bad)
        object.__setattr__(defect, "row", 0)
        with pytest.raises(SpecValidationError) as exc_info:
            defect.validate()
        assert "resistance" in str(exc_info.value)

    def test_infinite_resistance_is_a_full_open_and_valid(self):
        OpenDefect(OpenLocation.CELL, math.inf).validate()

    def test_row_beyond_array_rejected(self):
        defect = OpenDefect(OpenLocation.CELL, 1e5, row=7)
        with pytest.raises(SpecValidationError):
            defect.validate(n_rows=3)


class TestSweepGridValidate:
    @given(
        r_min=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
        factor=st.floats(min_value=1.001, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_rejects_inverted_resistance_bounds(self, r_min, factor):
        with pytest.raises(SpecValidationError) as exc_info:
            SweepGrid.make(r_min=r_min * factor, r_max=r_min)
        assert "r_max" in str(exc_info.value)

    @given(u=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_rejects_inverted_voltage_bounds(self, u):
        with pytest.raises(SpecValidationError):
            SweepGrid.make(u_min=u + 0.5, u_max=u)

    @given(bad=st.sampled_from([math.nan, math.inf, 0.0, -5.0]))
    @settings(max_examples=10, deadline=None)
    def test_rejects_bad_r_min(self, bad):
        with pytest.raises(SpecValidationError):
            SweepGrid.make(r_min=bad)

    def test_valid_grid_roundtrips(self):
        grid = SweepGrid.make(n_r=4, n_u=3)
        assert grid.validate() is grid


class TestAnalyzerSpecValidate:
    def test_valid_spec_passes(self):
        spec = AnalyzerSpec(OpenLocation.CELL)
        assert spec.validate() is spec

    def test_bad_victim_row_rejected(self):
        spec = AnalyzerSpec(OpenLocation.CELL, n_rows=2, victim_row=5)
        with pytest.raises(SpecValidationError) as exc_info:
            spec.validate()
        assert "victim_row" in str(exc_info.value)

    def test_bad_guard_policy_rejected(self):
        spec = AnalyzerSpec(OpenLocation.CELL, guard_policy="quarantine")
        with pytest.raises(SpecValidationError):
            spec.validate()

    def test_nested_technology_is_validated(self):
        tech = replace(default_technology(), c_cell=-1.0)
        with pytest.raises(SpecValidationError):
            AnalyzerSpec(OpenLocation.CELL, technology=tech).validate()
