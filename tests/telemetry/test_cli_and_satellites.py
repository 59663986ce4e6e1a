"""CLI observability flags and the satellite fixes that ride with them."""

import json

import pytest

from repro import cli, telemetry
from repro.circuit.defects import FloatingNode, OpenLocation
from repro.core.analysis import (
    ColumnFaultAnalyzer, SweepGrid, default_grid_for,
)
from repro.core.fault_primitives import parse_sos
from repro.experiments.reporting import ExperimentReport, instrumented


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def small_analyzer(**kwargs) -> ColumnFaultAnalyzer:
    grid = SweepGrid.make(r_min=3e3, r_max=3e6, n_r=3, n_u=3)
    return ColumnFaultAnalyzer(
        OpenLocation.BL_PRECHARGE_CELLS, grid=grid, **kwargs
    )


class TestCLIFlags:
    def test_no_flags_means_no_telemetry(self, capsys):
        assert cli.main(["fp-space"]) == 0
        out = capsys.readouterr().out
        assert "[telemetry]" not in out
        assert not telemetry.enabled()
        assert telemetry.get_metrics().is_empty()
        assert telemetry.get_tracer().spans == []

    def test_metrics_and_trace_files(self, capsys, tmp_path):
        metrics_file = tmp_path / "m.json"
        trace_file = tmp_path / "t.jsonl"
        code = cli.main([
            "fp-space",
            "--metrics-json", str(metrics_file),
            "--trace", str(trace_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[telemetry] fp-space:" in out
        assert not telemetry.enabled()  # flag restored after the run
        metrics = json.loads(metrics_file.read_text())
        assert "analyzer.cache_hit_ratio" in metrics["derived"]
        assert metrics["histograms"]["experiment.seconds"]["count"] == 1
        spans = [
            json.loads(line) for line in trace_file.read_text().splitlines()
        ]
        assert any(s["name"] == "experiment.fp_space" for s in spans)

    def test_all_mode_summary_and_failure_diagnosis(self, capsys, monkeypatch):
        # Two tiny fake experiments, one failing.
        def make(name, holds):
            @instrumented(name)
            def runner():
                report = ExperimentReport(f"fake {name}")
                report.claim("c", "p", "m", holds)

                class Result:
                    pass

                result = Result()
                result.report = report
                return result

            return lambda jobs, gp, mg, ge: runner()

        monkeypatch.setattr(
            cli, "_EXPERIMENTS",
            {"good": make("good", True), "bad": make("bad", False)},
        )
        code = cli.main(["all"])
        out = capsys.readouterr().out
        assert code == 1
        assert "experiment" in out and "claims held" in out  # summary table
        assert "good" in out and "bad" in out
        assert "FAILED: claims do not hold in: bad" in out

    def test_profile_flag_prints_stats(self, capsys):
        assert cli.main(["fp-space", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats header


class TestCLIGuardFlags:
    def _fake(self, monkeypatch, runner):
        monkeypatch.setattr(
            cli, "_EXPERIMENTS", {"fig3": runner}, raising=True
        )
        monkeypatch.setattr(cli, "_FANNED", frozenset({"fig3"}))
        monkeypatch.setattr(cli, "_GUARDED", frozenset({"fig3"}))

    def test_guard_policy_flag_reaches_the_experiment(
        self, capsys, monkeypatch
    ):
        from repro.circuit.network import GuardPolicy

        seen = {}

        def runner(jobs, gp, mg, ge):
            seen["policy"] = gp
            report = ExperimentReport("fake fig3")
            report.claim("c", "p", "m", True)

            class Result:
                pass

            result = Result()
            result.report = report
            result.quarantined = [(1e5, 1.65)]
            return result

        self._fake(monkeypatch, runner)
        assert cli.main(["fig3", "--guard-policy", "quarantine"]) == 0
        assert seen["policy"] is GuardPolicy.QUARANTINE
        out = capsys.readouterr().out
        assert "[guards] fig3: policy=quarantine, 1 grid point(s)" in out

    def test_without_guard_flags_no_guards_line(self, capsys, monkeypatch):
        def runner(jobs, gp, mg, ge):
            report = ExperimentReport("fake fig3")
            report.claim("c", "p", "m", True)
            return report

        self._fake(monkeypatch, runner)
        assert cli.main(["fig3"]) == 0
        assert "[guards]" not in capsys.readouterr().out

    def test_unknown_guard_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig3", "--guard-policy", "panic"])

    def test_invalid_spec_exits_2_with_one_line(self, capsys, monkeypatch):
        from repro.errors import SpecValidationError

        def runner(jobs, gp, mg, ge):
            raise SpecValidationError("SweepGrid", "r_max", 1.0, ">= r_min")

        self._fake(monkeypatch, runner)
        assert cli.main(["fig3"]) == 2
        err = capsys.readouterr().err
        assert "invalid spec" in err and "SweepGrid.r_max" in err
        assert "Traceback" not in err

    def test_solver_divergence_exits_3(self, capsys, monkeypatch):
        from repro.errors import SolverDivergenceError

        def runner(jobs, gp, mg, ge):
            raise SolverDivergenceError("nan", "non-finite node voltage")

        self._fake(monkeypatch, runner)
        assert cli.main(["fig3"]) == 3
        err = capsys.readouterr().err
        assert "solver guard" in err
        assert "Traceback" not in err

    def test_unknown_experiment_lists_valid_ones(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["mystery-experiment"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "table1" in err  # usage line enumerates the choices


class TestCacheSatellite:
    def test_cache_info_and_clear(self):
        analyzer = small_analyzer()
        sos = parse_sos("1r1")
        analyzer.observe(sos, 1e5, 0.0, FloatingNode.BIT_LINE)
        analyzer.observe(sos, 1e5, 0.0, FloatingNode.BIT_LINE)
        info = analyzer.cache_info()
        assert info.hits == 1
        assert info.misses == 1
        assert info.currsize == 1
        assert info.maxsize is None
        analyzer.cache_clear()
        info = analyzer.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_fifo_eviction_caps_cache(self):
        analyzer = small_analyzer(max_cache_entries=3)
        sos = parse_sos("1r1")
        for r in (1e4, 2e4, 3e4, 4e4, 5e4):
            analyzer.observe(sos, r, 0.0, FloatingNode.BIT_LINE)
        info = analyzer.cache_info()
        assert info.currsize == 3
        assert info.maxsize == 3
        # The oldest entry (r=1e4) was evicted: observing it again misses.
        misses_before = analyzer.cache_info().misses
        analyzer.observe(sos, 1e4, 0.0, FloatingNode.BIT_LINE)
        assert analyzer.cache_info().misses == misses_before + 1
        # The newest entry is still cached.
        hits_before = analyzer.cache_info().hits
        analyzer.observe(sos, 5e4, 0.0, FloatingNode.BIT_LINE)
        assert analyzer.cache_info().hits == hits_before + 1

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            small_analyzer(max_cache_entries=0)


class TestGridSatellites:
    def test_default_grid_forwards_u_min(self):
        grid = default_grid_for(OpenLocation.CELL, n_u=5, u_min=1.1)
        assert grid.u_values[0] == pytest.approx(1.1)
        assert grid.u_values[-1] == pytest.approx(3.3)

    def test_default_grid_u_min_defaults_to_zero(self):
        grid = default_grid_for(OpenLocation.CELL)
        assert grid.u_values[0] == 0.0

    def test_coarser_keeps_at_least_two_points(self):
        grid = SweepGrid.make(n_r=3, n_u=3)
        coarse = grid.coarser(every_r=5, every_u=5)
        assert coarse.r_values == (grid.r_values[0], grid.r_values[-1])
        assert coarse.u_values == (grid.u_values[0], grid.u_values[-1])

    def test_coarser_normal_subsampling_unchanged(self):
        grid = SweepGrid.make(n_r=8, n_u=6)
        coarse = grid.coarser()
        assert coarse.r_values == grid.r_values[::2]
        assert coarse.u_values == grid.u_values[::2]

    def test_coarser_single_point_axis_stays(self):
        grid = SweepGrid((1e3,), (0.0, 1.0, 2.0))
        coarse = grid.coarser(every_r=2, every_u=2)
        assert coarse.r_values == (1e3,)
        assert len(coarse.u_values) >= 2


class TestLogJsonFlag:
    def test_log_json_writes_correlated_event_lines(self, capsys, tmp_path):
        from repro.telemetry import events

        log_file = tmp_path / "events.jsonl"
        assert cli.main(["fp-space", "--log-json", str(log_file)]) == 0
        out = capsys.readouterr().out
        assert f"[events] wrote structured log to {log_file}" in out
        # the flag alone does not switch the [telemetry] summary on
        assert "[telemetry]" not in out
        with open(log_file, encoding="utf-8") as fh:
            names = [json.loads(line)["event"] for line in fh]
        assert names[0] == "cli.run.started"
        assert "experiment.started" in names
        assert "experiment.finished" in names
        assert names[-1] == "cli.run.finished"
        assert not events.enabled()  # handler detached after the run

    def test_stdout_identical_up_to_closing_line(self, capsys, tmp_path):
        assert cli.main(["fp-space"]) == 0
        plain = capsys.readouterr().out
        log_file = tmp_path / "events.jsonl"
        assert cli.main(["fp-space", "--log-json", str(log_file)]) == 0
        logged = capsys.readouterr().out
        assert logged.startswith(plain)
        assert logged[len(plain):] == (
            f"[events] wrote structured log to {log_file}\n"
        )

    def test_unwritable_log_path_rejected_up_front(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([
                "fp-space", "--log-json",
                str(tmp_path / "no-such-dir" / "events.jsonl"),
            ])
        assert exit_info.value.code == 2
