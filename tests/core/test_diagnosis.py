"""Tests for signature-based defect diagnosis."""

import math
import random

import pytest

from repro.campaign.corners import VDD_SCALED_FIELDS
from repro.circuit.defects import OpenDefect, OpenLocation
from repro.circuit.technology import Technology
from repro.core.analysis import _R_RANGES
from repro.core.diagnosis import (
    EQUIVALENCE_CLASSES,
    SignatureDatabase,
    equivalence_class,
)
from repro.experiments.diagnosis import run_diagnosis

#: The headline locations the small dictionaries cover.
THREE = (
    OpenLocation.BL_PRECHARGE_CELLS,
    OpenLocation.CELL,
    OpenLocation.BL_SENSEAMP_IO,
)


@pytest.fixture(scope="module")
def database():
    # A small dictionary over the three headline locations keeps the
    # suite fast; the full database is exercised by the benchmark.
    return SignatureDatabase(points_per_decade=2, locations=THREE)


class TestEquivalenceClasses:
    def test_every_location_classified(self):
        assert set(EQUIVALENCE_CLASSES) == set(OpenLocation)

    def test_bitline_opens_share_a_class(self):
        assert (
            equivalence_class(OpenLocation.PRECHARGE)
            == equivalence_class(OpenLocation.BL_PRECHARGE_CELLS)
            == equivalence_class(OpenLocation.BL_CELLS_REFERENCE)
        )

    def test_cell_and_word_line_share_a_class(self):
        assert (
            equivalence_class(OpenLocation.CELL)
            == equivalence_class(OpenLocation.WORD_LINE)
        )

    def test_forwarding_is_distinct(self):
        assert equivalence_class(OpenLocation.BL_SENSEAMP_IO) not in (
            equivalence_class(OpenLocation.CELL),
            equivalence_class(OpenLocation.PRECHARGE),
        )


class TestSignatures:
    def test_healthy_device_has_empty_signature(self, database):
        assert database.signature_of(None) == frozenset()
        assert database.diagnose_defect(None).healthy

    def test_database_nonempty(self, database):
        assert database.size >= 6

    def test_signature_is_deterministic(self, database):
        defect = OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 1e6)
        assert database.signature_of(defect) == database.signature_of(defect)

    def test_strong_defect_has_a_signature(self, database):
        defect = OpenDefect(OpenLocation.CELL, 5e5)
        assert database.signature_of(defect)


class TestDiagnosis:
    @pytest.mark.parametrize("location,resistance", [
        (OpenLocation.BL_PRECHARGE_CELLS, 4e5),
        (OpenLocation.CELL, 3e5),
        (OpenLocation.BL_SENSEAMP_IO, 2e8),
    ])
    def test_off_grid_defects_diagnose_to_their_class(
        self, database, location, resistance
    ):
        result = database.diagnose_defect(OpenDefect(location, resistance))
        assert not result.healthy
        assert result.best is not None
        # Exact similarity ties are physically meaningful (a fully
        # disconnected forwarding open fails like a floating bit line),
        # so the truth must be among the tied-best classes.
        assert equivalence_class(location) in result.top_classes

    def test_candidates_ranked_by_similarity(self, database):
        result = database.diagnose_defect(
            OpenDefect(OpenLocation.CELL, 3e5)
        )
        sims = [c.similarity for c in result.candidates]
        assert sims == sorted(sims, reverse=True)

    def test_resistance_range_brackets_truth(self, database):
        resistance = 3e5
        result = database.diagnose_defect(
            OpenDefect(OpenLocation.CELL, resistance)
        )
        best = result.best
        assert best.r_min <= resistance * 10
        assert best.r_max >= resistance / 10

    def test_empty_signature_diagnoses_nothing(self, database):
        result = database.diagnose(frozenset())
        assert result.healthy and result.best is None


class TestEngines:
    def test_batched_signatures_equal_one_at_a_time(self, database):
        defects = [
            OpenDefect(OpenLocation.CELL, 3e5),
            None,
            OpenDefect(OpenLocation.WORD_LINE, 3e7),
            OpenDefect(OpenLocation.BL_SENSEAMP_IO, 2e8),
        ]
        assert database.signatures_of(defects) == [
            database.signature_of(defect) for defect in defects
        ]

    def test_presets_are_the_rails_of_a_scaled_supply(self):
        base = Technology()
        corner = base.scaled(
            **{name: getattr(base, name) * 0.8 for name in VDD_SCALED_FIELDS}
        )
        database = SignatureDatabase(
            technology=corner, points_per_decade=1,
            locations=(OpenLocation.BL_PRECHARGE_CELLS,),
        )
        assert database.presets == (0.0, corner.vdd)
        assert database.size
        presets = {
            fail[0] for signature, _, _ in database._entries
            for fail in signature
        }
        assert presets <= {0.0, corner.vdd}

    def test_three_location_report_identical_on_both_engines(self):
        grid = run_diagnosis(locations=THREE)
        scalar = run_diagnosis(locations=THREE, grid_engine=False)
        assert grid.report.render() == scalar.report.render()

    def test_report_is_identical_for_any_jobs(self):
        kwargs = dict(locations=THREE, n_trials=12, points_per_decade=1)
        scalar = run_diagnosis(grid_engine=False, **kwargs).report.render()
        for jobs in (1, 2, None):
            result = run_diagnosis(jobs=jobs, **kwargs)
            assert result.report.render() == scalar, jobs

    def test_dictionary_and_trials_share_one_run(self):
        devices = [
            OpenDefect(OpenLocation.CELL, 3e5),
            None,
            OpenDefect(OpenLocation.BL_SENSEAMP_IO, 2e8),
        ]
        database = SignatureDatabase(
            points_per_decade=1, locations=THREE, devices=devices, jobs=2,
        )
        alone = SignatureDatabase(points_per_decade=1, locations=THREE)
        assert alone.device_signatures == []
        assert database._entries == alone._entries
        assert database.device_signatures == alone.signatures_of(devices)

    def test_default_run_makes_one_lock_step_run_per_location(
        self, monkeypatch
    ):
        from repro.march import simulator

        calls = []
        real = simulator._run_group

        def counting(test, defects, *args, **kwargs):
            calls.append(defects[0].location)
            return real(test, defects, *args, **kwargs)

        monkeypatch.setattr(simulator, "_run_group", counting)
        run_diagnosis(jobs=1)
        assert sorted(calls, key=lambda loc: loc.number) == list(OpenLocation)
