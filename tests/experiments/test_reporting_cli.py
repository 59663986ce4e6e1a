"""Tests for reporting primitives and the CLI."""

import pytest

from repro.cli import main
from repro.experiments.reporting import Claim, ExperimentReport, format_table


class TestClaim:
    def test_render_ok(self):
        claim = Claim("x", "a", "b", True)
        assert claim.render().startswith("[OK ]")

    def test_render_diff(self):
        assert Claim("x", "a", "b", False).render().startswith("[DIFF]")


class TestExperimentReport:
    def test_claims_accumulate(self):
        report = ExperimentReport("t")
        report.claim("one", "p", "m", True)
        report.claim("two", "p", "m", False)
        assert report.holding == 1
        assert not report.all_hold

    def test_render_contains_blocks_and_score(self):
        report = ExperimentReport("My Title")
        report.add_block("BLOCK TEXT")
        report.claim("c", "p", "m", True)
        text = report.render()
        assert "My Title" in text
        assert "BLOCK TEXT" in text
        assert "1/1 claims hold" in text


class TestFormatTable:
    def test_aligns_columns(self):
        text = format_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_empty_rows(self):
        text = format_table(("h",), [])
        assert "h" in text


class TestCLI:
    def test_fp_space_runs(self, capsys):
        code = main(["fp-space"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Section 4" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    @pytest.mark.parametrize("name,module,func", [
        ("escapes", "escapes", "run_escapes"),
        ("diagnosis", "diagnosis", "run_diagnosis"),
    ])
    def test_no_grid_engine_reaches_march_populations(
        self, capsys, monkeypatch, name, module, func
    ):
        import importlib

        seen = []

        def fake(**kwargs):
            seen.append(kwargs)
            return ExperimentReport(name)

        monkeypatch.setattr(
            importlib.import_module(f"repro.experiments.{module}"), func, fake
        )
        assert main([name, "--no-grid-engine"]) == 0
        assert main([name]) == 0
        assert seen == [{"grid_engine": False}, {"grid_engine": True}]
        assert "does not use the grid engine" not in capsys.readouterr().out
