"""The strict fan-out, crash injection, and the CLI flags around them.

The fan-out has no unit-level recovery: a unit that raises, or whose
worker dies, fails the run, after the telemetry of the units that
finished is merged.  Recovery is a clean re-run of the whole job, which
reproduces the uninterrupted result exactly.  Unit functions live at
module level (workers import them by qualified name); the crashing one
coordinates through a flag file, so "crash once" behaves identically
whichever process runs the attempt.
"""

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import cli, telemetry
from repro.circuit.defects import OpenLocation
from repro.experiments import table1
from repro.inject import CheckpointTailTruncator
from repro.io import CheckpointStore
from repro.parallel import parallel_map_ex

#: Worker monkeypatches propagate to pool workers only when children are
#: forked copies of the parent (spawn re-imports the pristine module).
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection requires the fork start method",
)


def _strict_unit(payload):
    value, should_fail = payload
    telemetry.count("test.strict_units")
    if should_fail:
        time.sleep(0.3)
        raise ValueError("boom")
    return value * 10


def test_strict_failure_merges_finished_units_telemetry():
    """Regression: a raising unit used to discard all collected worker
    telemetry snapshots."""
    payloads = [(0, False), (1, True), (2, False), (3, False)]
    telemetry.reset()
    telemetry.enable()
    try:
        with pytest.raises(ValueError, match="boom"):
            parallel_map_ex(_strict_unit, payloads, jobs=2)
        # the three successful units' snapshots were merged before raising
        registry = telemetry.get_metrics()
        assert registry.counter_value("test.strict_units") == 3
    finally:
        telemetry.disable()
        telemetry.reset()


def test_checkpoint_tolerates_torn_tail_line(tmp_path):
    # A kill mid-append tears the store's last line.  The torn line is
    # skipped, and the next record starts on a fresh line instead of
    # being glued onto it and lost with it.
    path = str(tmp_path / "torn.jsonl")
    with CheckpointStore(path) as store:
        for key in ("a", "b", "c"):
            store.record(key, key.upper())
    with CheckpointTailTruncator(path, seed=1, max_bytes=10):
        pass
    assert sorted(CheckpointStore(path).load()) == ["a", "b"]
    with CheckpointStore(path) as store:
        store.record("c", "C")
    assert CheckpointStore(path).load() == {"a": "A", "b": "B", "c": "C"}


COARSE_OPENS = (OpenLocation.CELL, OpenLocation.BL_PRECHARGE_CELLS)
_CRASH_FLAG = {"path": None}
_ORIG_ANALYZE_OPEN = table1._analyze_open


def _crashy_analyze_open(payload):
    if not os.path.exists(_CRASH_FLAG["path"]):
        open(_CRASH_FLAG["path"], "w").close()
        os._exit(17)
    return _ORIG_ANALYZE_OPEN(payload)


@fork_only
def test_table1_crash_injection_recovers(tmp_path, monkeypatch):
    """A worker killed mid-Table 1 fails the run; the re-run is intact."""
    kwargs = dict(opens=COARSE_OPENS, n_r=4, n_u=3)
    clean = table1.run_table1(jobs=1, **kwargs)

    _CRASH_FLAG["path"] = str(tmp_path / "crash.flag")
    monkeypatch.setattr(table1, "_analyze_open", _crashy_analyze_open)
    with pytest.raises(BrokenProcessPool):
        table1.run_table1(jobs=2, **kwargs)
    assert os.path.exists(_CRASH_FLAG["path"]), "no crash was injected"
    rerun = table1.run_table1(jobs=2, **kwargs)
    assert rerun.rows == clean.rows
    assert rerun.report.render() == clean.report.render()


# -- CLI surface ---------------------------------------------------------------

def test_cli_jobs_notice_for_non_fanned_experiment(capsys):
    assert cli.main(["fp-space", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "[note] fp-space has no parallel fan-out" in out
    assert "--jobs 2 is ignored" in out
    assert "(fanned experiments: diagnosis, escapes, table1)" in out


@pytest.mark.parametrize("name,func", [
    ("escapes", "run_escapes"), ("diagnosis", "run_diagnosis"),
])
def test_cli_jobs_reaches_escapes_and_diagnosis(
    capsys, monkeypatch, name, func
):
    import importlib
    from types import SimpleNamespace

    from repro.experiments.reporting import ExperimentReport

    seen = []

    def fake(**kwargs):
        seen.append(kwargs)
        report = ExperimentReport(name)
        report.claim("c", "p", "m", True)
        return SimpleNamespace(report=report)

    monkeypatch.setattr(
        importlib.import_module(f"repro.experiments.{name}"), func, fake
    )
    assert cli.main([name]) == 0
    assert cli.main([name, "--jobs", "2"]) == 0
    assert "[note]" not in capsys.readouterr().out
    assert seen == [
        {"grid_engine": True, "jobs": None},
        {"grid_engine": True, "jobs": 2},
    ]


def test_cli_default_output_has_no_notices(capsys):
    assert cli.main(["fp-space"]) == 0
    assert "[note]" not in capsys.readouterr().out


def test_probe_writable_removes_only_probe_created_files(tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    cli._probe_writable(str(fresh))
    assert not fresh.exists(), "probe left a stray empty file behind"
    existing = tmp_path / "existing.jsonl"
    existing.write_text("keep me\n", encoding="utf-8")
    cli._probe_writable(str(existing))
    assert existing.read_text(encoding="utf-8") == "keep me\n"
    with pytest.raises(OSError):
        cli._probe_writable(str(tmp_path / "no" / "such" / "dir" / "f"))


def test_cli_resume_flag_validation(capsys):
    # The unit-recovery flags are gone: argparse refuses them (exit 2)
    # before anything runs.
    for argv in (
        ["table1", "--checkpoint", "t.jsonl"],
        ["table1", "--resume", "t.jsonl"],
        ["table1", "--max-retries", "1"],
        ["table1", "--unit-timeout", "5"],
        ["serve", "--max-retries", "1"],
        ["serve", "--unit-timeout", "5"],
        ["campaign", "run", "--corners", "cycle=1.0", "--work-dir", "w"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
