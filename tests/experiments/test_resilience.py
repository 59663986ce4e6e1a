"""Resilience layer: retry, timeout, fallback, pool breaks, checkpoints.

Every recovery path must preserve the fan-out's determinism contract:
whatever crashes, times out, or resumes, the final results equal the
clean serial run.  Unit functions live at module level (workers import
them by qualified name) and coordinate through flag files passed in the
payload, so "fail once, then succeed" behaves identically whichever
process runs the attempt.
"""

import multiprocessing
import os
import time

import pytest

from repro import cli, telemetry
from repro.circuit.defects import OpenLocation
from repro.experiments import table1
from repro.io import CheckpointStore
from repro.parallel import (
    Resilience, RetryPolicy, UnitFailure, drain_resilience_log,
    parallel_map_ex,
)
import repro.parallel as par

#: Worker monkeypatches propagate to pool workers only when children are
#: forked copies of the parent (spawn re-imports the pristine module).
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection requires the fork start method",
)


def _double(payload):
    value, _flag = payload
    return value * 2


def _flaky(payload):
    """Raise on the first attempt ever (flag file), succeed after."""
    value, flag = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        raise ValueError("first attempt fails")
    return value * 2


def _exit_once(payload):
    """Kill the worker process outright on the first attempt."""
    value, flag = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(17)
    return value + 1


def _slow_once(payload):
    """Sleep far past the unit timeout on the first attempt."""
    value, flag = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(2.0)
    return value - 1


def _always_fail(payload):
    raise RuntimeError("permanent failure")


def _never_call(payload):
    raise AssertionError("unit should have been resumed, not re-run")


def _strict_unit(payload):
    value, should_fail = payload
    telemetry.count("test.strict_units")
    if should_fail:
        time.sleep(0.3)
        raise ValueError("boom")
    return value * 10


def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(backoff=0.1, backoff_factor=2.0, backoff_max=0.35)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.35)  # capped


def test_retry_recovers_flaky_unit(tmp_path):
    drain_resilience_log()
    payloads = [(i, str(tmp_path / "flaky.flag")) for i in range(4)]
    outcome = parallel_map_ex(
        _flaky, payloads, jobs=2,
        policy=RetryPolicy(max_retries=2, backoff=0.01),
    )
    assert outcome.results == [0, 2, 4, 6]
    assert not outcome.failures
    log = drain_resilience_log()
    assert log.retries >= 1 and not log.failures


def test_retry_recovers_in_process_too(tmp_path):
    drain_resilience_log()
    payloads = [(i, str(tmp_path / "serial.flag")) for i in range(3)]
    outcome = parallel_map_ex(
        _flaky, payloads, jobs=1,
        policy=RetryPolicy(max_retries=1, backoff=0.0),
    )
    assert outcome.results == [0, 2, 4]
    assert drain_resilience_log().retries == 1


def test_fallback_after_retry_budget(tmp_path):
    # Unit 0 fails twice (first try + the one retry), exhausting
    # max_retries=1, then succeeds in the in-process fallback because by
    # then both of its flags exist.  Unit 1's flags are pre-created so
    # it sails through and keeps the fan-out on the pooled path.
    drain_resilience_log()
    flags_0 = [str(tmp_path / "a0.flag"), str(tmp_path / "b0.flag")]
    flags_1 = [str(tmp_path / "a1.flag"), str(tmp_path / "b1.flag")]
    for flag in flags_1:
        open(flag, "w").close()

    outcome = parallel_map_ex(
        _flaky_twice, [(5, *flags_0), (7, *flags_1)], jobs=2,
        policy=RetryPolicy(max_retries=1, backoff=0.01, fallback=True),
    )
    assert outcome.results == [50, 70]
    log = drain_resilience_log()
    assert log.retries == 1 and log.fallbacks == 1 and not log.failures


def _flaky_twice(payload):
    value, flag_a, flag_b = payload
    for flag in (flag_a, flag_b):
        if not os.path.exists(flag):
            open(flag, "w").close()
            raise ValueError("not yet")
    return value * 10


def test_broken_pool_recovers_via_fallback(tmp_path):
    drain_resilience_log()
    flag = str(tmp_path / "exit.flag")
    outcome = parallel_map_ex(
        _exit_once, [(i, flag) for i in range(5)], jobs=2,
        policy=RetryPolicy(max_retries=0, backoff=0.01, fallback=True),
    )
    assert outcome.results == [1, 2, 3, 4, 5]
    assert not outcome.failures
    log = drain_resilience_log()
    assert log.pool_breaks >= 1 and log.fallbacks >= 1


def test_unit_timeout_cancels_and_retries(tmp_path):
    drain_resilience_log()
    flag = str(tmp_path / "slow.flag")
    start = time.monotonic()
    outcome = parallel_map_ex(
        _slow_once, [(i, flag) for i in range(3)], jobs=2,
        policy=RetryPolicy(
            max_retries=1, backoff=0.01, unit_timeout=0.2, fallback=True,
        ),
    )
    elapsed = time.monotonic() - start
    assert outcome.results == [-1, 0, 1]
    assert elapsed < 1.9, "straggler was waited on instead of cancelled"
    assert drain_resilience_log().timeouts >= 1


def test_recorded_failure_keeps_other_results():
    drain_resilience_log()
    outcome = parallel_map_ex(
        _always_fail, [1], jobs=1,
        policy=RetryPolicy(max_retries=1, backoff=0.0, fallback=False),
    )
    assert outcome.results == [None]
    assert len(outcome.failures) == 1
    failure = outcome.failures[0]
    assert failure.error_type == "RuntimeError"
    assert failure.message == "permanent failure"
    assert failure.attempts == 2  # first try + one retry
    assert drain_resilience_log().failures == [failure]


def test_strict_failure_attaches_partials_and_merges_telemetry():
    """Regression: a raising unit used to discard every completed
    result and all collected worker telemetry snapshots."""
    drain_resilience_log()
    payloads = [(0, False), (1, True), (2, False), (3, False)]
    telemetry.reset()
    telemetry.enable()
    try:
        with pytest.raises(ValueError, match="boom") as excinfo:
            parallel_map_ex(_strict_unit, payloads, jobs=2, strict=True)
        assert excinfo.value.partial_results == {0: 0, 2: 20, 3: 30}
        failures = excinfo.value.unit_failures
        assert [f.index for f in failures] == [1]
        # the three successful units' snapshots were merged before raising
        registry = telemetry.get_metrics()
        assert registry.counter_value("test.strict_units") == 3
    finally:
        telemetry.disable()
        telemetry.reset()
    drain_resilience_log()


def test_checkpoint_resume_skips_completed_units(tmp_path):
    drain_resilience_log()
    path = str(tmp_path / "ck.jsonl")
    payloads = [(i, "unused") for i in range(6)]
    keys = [f"unit-{i}" for i in range(6)]
    with CheckpointStore(path) as store:
        first = parallel_map_ex(
            _double, payloads, jobs=2, checkpoint=store, keys=keys,
        )
    assert first.results == [0, 2, 4, 6, 8, 10]
    assert first.resumed == 0
    # a resumed run never executes the unit function at all
    with CheckpointStore(path) as store:
        second = parallel_map_ex(
            _never_call, payloads, jobs=2, checkpoint=store, keys=keys,
        )
    assert second.results == first.results
    assert second.resumed == 6
    assert drain_resilience_log().resumed == 6


def test_checkpoint_tolerates_torn_tail_line(tmp_path):
    path = str(tmp_path / "torn.jsonl")
    with CheckpointStore(path) as store:
        parallel_map_ex(
            _double, [(i, "x") for i in range(3)], jobs=1,
            checkpoint=store, keys=["a", "b", "c"],
        )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"format": "repro-v1", "kind": "checkpoint-un')  # torn
    with CheckpointStore(path) as store:
        assert sorted(store.load()) == ["a", "b", "c"]
    drain_resilience_log()


def test_checkpoint_requires_keys(tmp_path):
    store = CheckpointStore(str(tmp_path / "ck.jsonl"))
    with pytest.raises(ValueError, match="keys"):
        parallel_map_ex(_double, [(1, "x")], checkpoint=store)
    with pytest.raises(ValueError, match="unique"):
        parallel_map_ex(
            _double, [(1, "x"), (2, "x")], keys=["same", "same"],
        )
    with pytest.raises(ValueError, match="codec"):
        parallel_map_ex(_double, [(1, "x")], keys=["a"], codec="nope")


COARSE_OPENS = (OpenLocation.CELL, OpenLocation.BL_PRECHARGE_CELLS)
_CRASH_FLAG = {"path": None}
_ORIG_ANALYZE_OPEN = table1._analyze_open


def _crashy_analyze_open(payload):
    if not os.path.exists(_CRASH_FLAG["path"]):
        open(_CRASH_FLAG["path"], "w").close()
        raise RuntimeError("injected Table 1 crash")
    return _ORIG_ANALYZE_OPEN(payload)


@fork_only
def test_table1_crash_injection_recovers(tmp_path, monkeypatch):
    """A worker crash mid-Table 1 is retried and the inventory is intact."""
    drain_resilience_log()
    kwargs = dict(opens=COARSE_OPENS, n_r=4, n_u=3)
    clean = table1.run_table1(jobs=1, **kwargs)

    _CRASH_FLAG["path"] = str(tmp_path / "crash.flag")
    monkeypatch.setattr(table1, "_analyze_open", _crashy_analyze_open)
    res = Resilience(policy=RetryPolicy(max_retries=2, backoff=0.01))
    crashed = table1.run_table1(jobs=2, resilience=res, **kwargs)
    assert os.path.exists(_CRASH_FLAG["path"]), "no crash was injected"
    assert crashed.rows == clean.rows
    assert crashed.report.render() == clean.report.render()
    log = drain_resilience_log()
    assert log.retries >= 1 and not log.failures


# -- CLI surface (satellites 2 and 3) ------------------------------------------

def test_cli_jobs_notice_for_non_fanned_experiment(tmp_path, capsys):
    assert cli.main(["fp-space", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "[note] fp-space has no parallel fan-out" in out
    assert "--jobs 2 is ignored" in out
    assert "(fanned experiments: diagnosis, escapes, table1)" in out
    path = str(tmp_path / "ck.jsonl")
    assert cli.main(["fp-space", "--jobs", "2", "--checkpoint", path]) == 0
    out = capsys.readouterr().out
    assert "; --jobs 2 and --checkpoint are ignored" in out
    assert "[resilience]" not in out


@pytest.mark.parametrize("name,func", [
    ("escapes", "run_escapes"), ("diagnosis", "run_diagnosis"),
])
def test_cli_jobs_reaches_escapes_and_diagnosis(
    tmp_path, capsys, monkeypatch, name, func
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
    path = str(tmp_path / "ck.jsonl")
    assert cli.main([name, "--jobs", "2", "--checkpoint", path]) == 0
    out = capsys.readouterr().out
    assert (
        f"[note] {name} has no unit recovery; --checkpoint is ignored "
        "(resilient experiments: table1)"
    ) in out
    assert "[resilience]" not in out
    assert seen == [
        {"grid_engine": True, "jobs": None},
        {"grid_engine": True, "jobs": 2},
        {"grid_engine": True, "jobs": 2},
    ]


def test_cli_default_output_has_no_notices(capsys):
    assert cli.main(["fp-space"]) == 0
    out = capsys.readouterr().out
    assert "[note]" not in out and "[resilience]" not in out


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


def test_cli_resume_flag_validation(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["fig3", "--resume", str(tmp_path / "missing.jsonl")])
    assert "no such checkpoint" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["fig3", "--resume", "a.jsonl", "--checkpoint", "b.jsonl"])
    assert "different files" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["fig3", "--max-retries", "-1"])
    with pytest.raises(SystemExit):
        cli.main(["fig3", "--unit-timeout", "0"])
    capsys.readouterr()


def test_cli_checkpoint_then_resume_table1(tmp_path, capsys, monkeypatch):
    def coarse_table1(jobs, res, gp, mg, ge):
        return table1.run_table1(
            opens=COARSE_OPENS, n_r=4, n_u=3, jobs=jobs, resilience=res,
            guard_policy=gp, check_marginal=mg, grid_engine=ge,
        )

    monkeypatch.setitem(cli._EXPERIMENTS, "table1", coarse_table1)
    path = str(tmp_path / "table1.jsonl")
    status = cli.main(["table1", "--checkpoint", path])
    first = capsys.readouterr().out
    assert "[resilience] table1: 0 failed" in first
    assert os.path.exists(path)
    assert cli.main(["table1", "--resume", path]) == status
    second = capsys.readouterr().out
    assert "2 resumed from checkpoint" in second
    # the report body is identical; only the [resilience] line differs
    assert first.split("[resilience]")[0] == second.split("[resilience]")[0]


def test_resilience_summary_formats_failures():
    drain_resilience_log()
    par._session_log().retries = 2
    par._session_log().fallbacks = 1
    par._session_log().failures.append(UnitFailure(
        key="table1|CELL|grid=abc|ops=3|marginal=0", index=4,
        error_type="ValueError", message="boom", attempts=3, duration=0.5,
    ))
    lines = cli._resilience_summary("table1")
    assert lines[0].startswith("[resilience] table1: 1 failed, 2 retried")
    assert "1 ran in-process" in lines[0]
    assert "FAILED table1|CELL|grid=abc" in lines[1]
    assert "ValueError after 3 attempts (boom)" in lines[1]
    drain_resilience_log()
