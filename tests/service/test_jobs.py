"""JobSpec content addressing, validation, and result payloads."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.circuit.defects import OpenLocation
from repro.circuit.network import (
    GuardPolicy,
    _install_solver_fault_hook,
    solver_guards_configure,
)
from repro.errors import SpecValidationError
from repro.inject import SolverNaNInjector
from repro.service.jobs import JobSpec, JobState, result_payload

from .conftest import make_report


class TestContentAddress:
    def test_explicit_defaults_address_like_omitted(self):
        implicit = JobSpec("table1")
        explicit = JobSpec(
            "table1",
            opens=tuple(sorted(OpenLocation.__members__)),
            n_r=16,
            n_u=12,
            max_extra_ops=3,
        )
        assert implicit.address == explicit.address

    def test_execution_hints_do_not_change_the_address(self):
        spec = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        assert spec.with_jobs(8).address == spec.address
        assert replace(spec, grid_engine=False).address == spec.address

    @pytest.mark.parametrize("name,func", [
        ("escapes", "run_escapes"), ("diagnosis", "run_diagnosis"),
    ])
    def test_march_populations_honour_the_grid_engine_hint(
        self, monkeypatch, name, func
    ):
        import importlib

        from repro.service.jobs import SERVICE_EXPERIMENTS

        seen = []
        monkeypatch.setattr(
            importlib.import_module(f"repro.experiments.{name}"), func,
            lambda **kwargs: seen.append(kwargs),
        )
        spec = JobSpec(name)
        profile = SERVICE_EXPERIMENTS[name]
        profile.run(replace(spec, grid_engine=False))
        profile.run(spec)
        profile.run(replace(spec, jobs=2))
        assert seen == [
            {"grid_engine": False, "jobs": 1},
            {"grid_engine": True, "jobs": 1},
            {"grid_engine": True, "jobs": 2},
        ]
        assert replace(spec, grid_engine=False).address == spec.address
        assert replace(spec, jobs=2).address == spec.address

    def test_grid_change_changes_the_address(self):
        base = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        assert replace(base, n_r=5).address != base.address
        assert replace(base, n_u=4).address != base.address

    def test_opens_order_is_canonicalized(self):
        a = JobSpec("table1", opens=("CELL", "WORD_LINE"), n_r=4, n_u=3)
        b = JobSpec("table1", opens=("WORD_LINE", "CELL"), n_r=4, n_u=3)
        assert a.address == b.address

    def test_result_shaping_fields_change_the_address(self):
        base = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        assert replace(base, max_extra_ops=1).address != base.address
        assert replace(base, check_marginal=True).address != base.address
        assert (
            replace(base, guard_policy="quarantine").address != base.address
        )

    def test_experiments_address_differently(self):
        assert JobSpec("fig3").address != JobSpec("fig4").address
        assert JobSpec("march").address != JobSpec("fp-space").address

    def test_grid_signatures_are_per_location(self):
        spec = JobSpec("table1", opens=("CELL", "WORD_LINE"), n_r=4, n_u=3)
        signatures = spec.grid_signatures()
        assert set(signatures) == {"CELL", "WORD_LINE"}
        # Different natural resistance ranges -> different grid digests.
        assert signatures["CELL"] != signatures["WORD_LINE"]

    def test_non_sweep_experiments_have_no_grids(self):
        assert JobSpec("march").grid_signatures() == {}
        assert "grids" not in JobSpec("march").canonical()


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(SpecValidationError):
            JobSpec("table9").validate()

    def test_opens_rejected_on_non_table1(self):
        with pytest.raises(SpecValidationError):
            JobSpec("fig3", opens=("CELL",)).validate()

    def test_unknown_open_location(self):
        with pytest.raises(SpecValidationError):
            JobSpec("table1", opens=("CELLAR",)).validate()

    def test_grid_rejected_on_non_sweep(self):
        with pytest.raises(SpecValidationError):
            JobSpec("march", n_r=8).validate()

    def test_grid_axis_needs_two_points(self):
        with pytest.raises(SpecValidationError):
            JobSpec("table1", n_r=1).validate()

    def test_completion_fields_are_table1_only(self):
        with pytest.raises(SpecValidationError):
            JobSpec("fig3", max_extra_ops=2).validate()
        with pytest.raises(SpecValidationError):
            JobSpec("fig3", check_marginal=True).validate()

    def test_bad_guard_policy(self):
        with pytest.raises(SpecValidationError):
            JobSpec("table1", guard_policy="panic").validate()

    def test_bad_jobs(self):
        with pytest.raises(SpecValidationError):
            JobSpec("table1", jobs=0).validate()

    def test_valid_spec_validates_to_itself(self):
        spec = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        assert spec.validate() is spec


class TestJsonRoundTrip:
    def test_roundtrip(self):
        spec = JobSpec(
            "table1", opens=("CELL",), n_r=4, n_u=3, max_extra_ops=2,
            guard_policy="quarantine", check_marginal=True, jobs=2,
            grid_engine=False,
        )
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_record_with_retired_batch_u_key_parses_unchanged(self):
        # Journal records written before the U-axis batching engine was
        # removed still carry its switch; they must replay, not drop.
        spec = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        record = dict(spec.to_json(), batch_u=False)
        parsed = JobSpec.from_json(record)
        assert parsed == spec
        assert parsed.address == spec.address

    @pytest.mark.parametrize("field,value", [
        ("check_marginal", "false"),
        ("check_marginal", 1),
        ("grid_engine", "false"),
        ("grid_engine", None),
        ("batch_u", "false"),
        ("jobs", True),
    ])
    def test_non_boolean_flags_and_boolean_jobs_rejected(self, field, value):
        with pytest.raises(SpecValidationError) as err:
            JobSpec.from_json({"experiment": "table1", field: value})
        assert err.value.field == field

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecValidationError):
            JobSpec.from_json({"experiment": "march", "n_rows": 4})

    def test_missing_experiment_rejected(self):
        with pytest.raises(SpecValidationError):
            JobSpec.from_json({"opens": ["CELL"]})

    def test_non_object_body_rejected(self):
        with pytest.raises(SpecValidationError):
            JobSpec.from_json(["table1"])

    def test_bad_opens_type_rejected(self):
        with pytest.raises(SpecValidationError):
            JobSpec.from_json({"experiment": "table1", "opens": "CELL"})

    def test_from_json_validates(self):
        with pytest.raises(SpecValidationError):
            JobSpec.from_json({"experiment": "table1", "n_r": 1})


class TestJobState:
    def test_terminal_states(self):
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal


class TestResultPayload:
    def test_report_and_claims(self):
        spec = JobSpec("fp-space")
        report = make_report(title="fp-space", block="hello")
        payload = result_payload(spec, SimpleNamespace(report=report))
        assert payload["format"] == "repro-v1"
        assert payload["kind"] == "job-result"
        assert payload["experiment"] == "fp-space"
        assert payload["address"] == spec.address
        assert payload["report"] == report.render()
        assert payload["claims"] == [
            {
                "name": "stub claim", "paper": "paper",
                "measured": "measured", "holds": True,
            }
        ]
        assert payload["holding"] == 1 and payload["all_hold"] is True

    def test_timing_block_is_stripped_and_restored(self):
        spec = JobSpec("fp-space")
        report = make_report()
        timing = {"experiment": "fp-space", "seconds": 1.0}
        report.timing = timing
        payload = result_payload(spec, SimpleNamespace(report=report))
        assert "-- timing:" not in payload["report"]
        assert report.timing is timing  # restored for the caller

    def test_table1_rows_ride_along(self):
        spec = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        row = SimpleNamespace(
            ffm_sim=SimpleNamespace(name="RDF0"),
            ffm_com=SimpleNamespace(name="TF1"),
            open_number=3,
            completed=None,
            completed_text="Not possible",
            floating="CELL",
            marginal=False,
        )
        payload = result_payload(
            spec, SimpleNamespace(report=make_report(), rows=[row])
        )
        assert payload["rows"] == [
            {
                "ffm_sim": "RDF0", "ffm_com": "TF1", "open": 3,
                "completed": None, "completed_text": "Not possible",
                "floating": "CELL", "marginal": False,
            }
        ]
        assert "quarantined" not in payload

    @pytest.fixture
    def default_guards(self):
        yield
        _install_solver_fault_hook(None)
        solver_guards_configure(policy=GuardPolicy.RAISE)

    def test_fig3_quarantined_grid_points_are_stored(self, default_guards):
        from repro.core.analysis import default_grid_for
        from repro.experiments.fig3 import run_fig3

        grid = default_grid_for(
            OpenLocation.BL_PRECHARGE_CELLS, n_r=4, n_u=3
        )
        target = (grid.r_values[1], grid.u_values[2])
        with SolverNaNInjector(target=target):
            result = run_fig3(
                n_r=4, n_u=3, guard_policy=GuardPolicy.QUARANTINE
            )
        assert result.quarantined
        spec = JobSpec("fig3", n_r=4, n_u=3, guard_policy="quarantine")
        payload = result_payload(spec, result)
        assert payload["quarantined"] == [
            {"r_def": target[0], "u": target[1]} for _ in result.quarantined
        ]
        json.dumps(payload, allow_nan=False)

    def test_march_quarantined_labels_are_stored(self, default_guards):
        from repro.experiments.march_pf import run_march_pf
        from repro.march.library import MATS_PLUS

        with SolverNaNInjector(at_solve=1):
            result = run_march_pf(
                tests=(MATS_PLUS,), with_generator=False,
                guard_policy=GuardPolicy.QUARANTINE,
            )
        assert len(result.quarantined) == 1
        spec = JobSpec("march", guard_policy="quarantine")
        payload = result_payload(spec, result)
        assert payload["quarantined"] == result.quarantined
        json.dumps(payload, allow_nan=False)


class TestTechnologyOverrides:
    """Stress-corner technology overrides in the content address.

    The campaign subsystem (docs/CAMPAIGNS.md) relies on two dedup
    properties: distinct corners must NEVER collapse onto each other,
    and identical corners (however spelled) must always dedupe.
    """

    CORNER = {"vdd": 2.64, "v_precharge": 1.32, "v_reference": 1.12,
              "v_wl_on": 2.64}

    def test_distinct_corners_never_dedupe(self):
        base = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        low_vdd = replace(base, technology=self.CORNER)
        hot = replace(base, technology={"temperature": 85.0})
        fast = replace(base, technology={"t_sense": 10e-9})
        addresses = {
            base.address, low_vdd.address, hot.address, fast.address
        }
        assert len(addresses) == 4

    def test_identical_corners_dedupe_regardless_of_spelling(self):
        base = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        from_dict = replace(base, technology=self.CORNER)
        from_pairs = replace(
            base,
            technology=tuple(reversed(sorted(self.CORNER.items()))),
        )
        assert from_dict.address == from_pairs.address
        assert from_dict.technology == from_pairs.technology

    def test_nominal_corner_addresses_like_a_plain_spec(self):
        # None and {} both mean "no overrides": the nominal corner of a
        # campaign is the same content address as the direct job, which
        # is what makes its report byte-comparable.
        base = JobSpec("table1", opens=("CELL",), n_r=4, n_u=3)
        nominal = replace(base, technology={})
        assert nominal.technology is None
        assert nominal.address == base.address
        assert "technology" not in base.canonical()

    def test_roundtrip_preserves_the_address(self):
        spec = JobSpec(
            "table1", opens=("CELL",), n_r=4, n_u=3,
            technology=self.CORNER,
        ).validate()
        again = JobSpec.from_json(spec.to_json())
        assert again.address == spec.address
        assert again.technology == spec.technology

    def test_unknown_field_rejected(self):
        spec = JobSpec("table1", technology={"not_a_field": 1.0})
        with pytest.raises(SpecValidationError):
            spec.validate()

    def test_unphysical_override_fails_fast(self):
        # v_precharge above the (scaled) rail: Technology.scaled()
        # re-validates, so the bad corner dies at validate() time.
        spec = JobSpec("table1", technology={"vdd": 1.0})
        with pytest.raises(SpecValidationError):
            spec.validate()

    def test_non_numeric_value_rejected(self):
        spec = JobSpec("table1", technology={"vdd": True})
        with pytest.raises(SpecValidationError):
            spec.validate()

    def test_rejected_on_experiments_without_technology(self):
        spec = JobSpec("fp-space", technology={"vdd": 3.0})
        with pytest.raises(SpecValidationError):
            spec.validate()
