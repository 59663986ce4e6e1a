"""Campaign orchestration: local, resumed, failed and service-backed."""

import json

import pytest

from repro import telemetry
from repro.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignResult,
    CornerMatrix,
    render_report,
    run_matrix_campaign,
)
from repro.campaign import runner as campaign_runner
from repro.cli import main
from repro.errors import SpecValidationError
from repro.service import SweepService
from repro.service.jobs import result_payload

#: A grid small enough for test time yet rich enough that the x0.5
#: cycle corner demonstrably moves the Table 1 inventory.
SMALL_GRID = dict(
    opens=("CELL", "BL_CELLS_REFERENCE", "SENSE_AMPLIFIER"),
    n_r=8,
    n_u=6,
)


def small_config(**overrides):
    kwargs = dict(
        matrix=CornerMatrix.from_spec("cycle=1.0,0.5"),
        **SMALL_GRID,
    )
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestConfigValidation:
    def test_resume_needs_a_checkpoint_path(self):
        with pytest.raises(SpecValidationError):
            small_config(resume=True).validate()

    def test_corner_jobs_must_be_positive(self):
        with pytest.raises(SpecValidationError):
            small_config(corner_jobs=0).validate()


class TestLocalCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_matrix_campaign(small_config())

    def test_both_report_claims_hold(self, result):
        assert result.report.all_hold
        assert result.executed == 2
        assert result.resumed == 0

    def test_nominal_payload_matches_a_direct_run_exactly(self, result):
        spec = small_config().base_spec()
        direct = result_payload(spec, spec.profile().run(spec, None))
        assert result.payload_for("nominal") == direct

    def test_stressed_corner_moves_the_inventory(self, result):
        nominal = result.payload_for("nominal")
        fast = result.payload_for("cycle=x0.5")

        def keys(payload):
            return {
                (row["ffm_sim"], row["open"])
                for row in payload["rows"]
            }

        assert keys(fast) != keys(nominal)

    def test_counts_reconcile_at_every_corner(self, result):
        for entry in result.entries:
            m = entry["metrics"]
            assert m["detected"] + m["escaped"] == m["faults"]
            assert m["absorbable"] + m["true_escapes"] == m["escaped"]
            assert len(entry["escapes"]) == m["escaped"]

    def test_rendering_the_artifact_reproduces_the_report(self, result):
        # Through a JSON round trip, as `campaign report` would see it.
        artifact = json.loads(json.dumps(result.artifact))
        assert render_report(artifact).render() == result.report.render()

    def test_unknown_corner_lookup_raises(self, result):
        with pytest.raises(KeyError):
            result.payload_for("no-such-corner")


def fake_payload(spec):
    return {
        "kind": "job-result",
        "address": spec.address,
        "rows": [],
    }


@pytest.fixture
def canned_local(monkeypatch):
    """Replace per-corner execution with an instant canned payload."""
    calls = []

    def execute(spec, work_dir, retry_policy):
        calls.append(spec.address)
        return fake_payload(spec)

    monkeypatch.setattr(campaign_runner, "_execute_local", execute)
    return calls


class TestCheckpointResume:
    def test_finished_corners_are_not_re_executed(
        self, tmp_path, canned_local
    ):
        path = str(tmp_path / "campaign.jsonl")
        first = run_matrix_campaign(
            small_config(checkpoint_path=path)
        )
        assert (first.executed, first.resumed) == (2, 0)
        assert len(canned_local) == 2

        second = run_matrix_campaign(
            small_config(checkpoint_path=path, resume=True)
        )
        assert (second.executed, second.resumed) == (0, 2)
        assert len(canned_local) == 2  # nothing re-ran
        assert [e["metrics"] for e in second.entries] == [
            e["metrics"] for e in first.entries
        ]

    def test_checkpoints_for_other_addresses_are_ignored(
        self, tmp_path, canned_local
    ):
        from repro.io import CheckpointStore

        path = str(tmp_path / "campaign.jsonl")
        config = small_config(checkpoint_path=path)
        pairs = config.matrix.job_specs(config.base_spec())
        _, nominal_spec = pairs[0]
        with CheckpointStore(path) as store:
            store.record(
                campaign_runner._checkpoint_key(nominal_spec),
                {"kind": "job-result", "address": "not-this-job"},
            )
        result = run_matrix_campaign(
            small_config(checkpoint_path=path, resume=True)
        )
        assert (result.executed, result.resumed) == (2, 0)


class TestFailureHandling:
    def test_failed_corners_raise_after_all_corners_settle(
        self, tmp_path, monkeypatch
    ):
        def execute(spec, work_dir, retry_policy):
            if spec.technology is not None:
                raise RuntimeError("corner exploded")
            return fake_payload(spec)

        monkeypatch.setattr(campaign_runner, "_execute_local", execute)
        path = str(tmp_path / "campaign.jsonl")
        with pytest.raises(CampaignError) as exc_info:
            run_matrix_campaign(small_config(checkpoint_path=path))
        message = str(exc_info.value)
        assert "cycle=x0.5" in message
        assert "resume" in message

        # The nominal corner finished and was checkpointed, so a resumed
        # retry only needs the corner that failed.
        monkeypatch.setattr(
            campaign_runner, "_execute_local",
            lambda spec, work_dir, retry_policy: fake_payload(spec),
        )
        result = run_matrix_campaign(
            small_config(checkpoint_path=path, resume=True)
        )
        assert (result.executed, result.resumed) == (1, 1)


class TestTelemetry:
    def test_campaign_counters_count_corner_jobs(self, canned_local):
        telemetry.enable()
        try:
            run_matrix_campaign(small_config(corner_jobs=2))
            metrics = telemetry.get_metrics()
            assert metrics.counter_value("campaign.corners") == 2
            assert metrics.counter_value("campaign.jobs.completed") == 2
            assert metrics.counter_value("campaign.jobs.failed") == 0
        finally:
            telemetry.reset()
            telemetry.disable()


class TestServiceCampaign:
    def test_service_and_local_paths_produce_identical_payloads(self):
        local = run_matrix_campaign(small_config())
        with SweepService(port=0) as service:
            remote = run_matrix_campaign(
                small_config(service_url=service.url, timeout=120.0)
            )
        assert isinstance(remote, CampaignResult)
        for entry in local.entries:
            assert (
                remote.payload_for(entry["corner"]) == entry["payload"]
            )
        assert remote.report.render() == local.report.render()


class TestCampaignCli:
    def test_run_then_report_round_trips(self, tmp_path, capsys):
        artifact_path = str(tmp_path / "campaign.json")
        rc = main([
            "campaign", "run",
            "--corners", "cycle=1.0,0.5",
            "--opens", "CELL", "BL_CELLS_REFERENCE", "SENSE_AMPLIFIER",
            "--n-r", "8", "--n-u", "6",
            "--json", artifact_path,
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "Stress-corner campaign" in captured.out
        assert "2 corner job(s) executed" in captured.err

        rc = main(["campaign", "report", "--json", artifact_path])
        reported = capsys.readouterr()
        assert rc == 0
        assert reported.out == captured.out

    def test_bad_corner_spec_exits_two(self, capsys):
        rc = main([
            "campaign", "run", "--corners", "freq=1.0,0.5",
        ])
        assert rc == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_report_rejects_a_non_campaign_document(
        self, tmp_path, capsys
    ):
        path = tmp_path / "not-a-campaign.json"
        path.write_text('{"kind": "job-result"}', encoding="utf-8")
        rc = main(["campaign", "report", "--json", str(path)])
        assert rc == 2
        assert "invalid document" in capsys.readouterr().err
