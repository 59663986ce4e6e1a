"""Smoke tests: the example scripts' entry points run and stay truthful."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_quickstart_runs_and_tells_the_story(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["quickstart.py"])
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "fault masked" in out
    assert "<1v [w0BL] r1v/0/0>" in out
    assert "March PF+ guarantees detection: True" in out
    assert "w1-r1 guarantees detection: False" in out


def test_examples_exist_and_are_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert scripts == [
        "defect_characterization.py",
        "field_return_diagnosis.py",
        "march_test_screening.py",
        "quickstart.py",
        "region_maps.py",
    ]
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.startswith("#!"), script
        assert '"""' in text, script
