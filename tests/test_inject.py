"""Chaos suite: every injector of ``repro.inject`` trips its guard.

Each test injects one fault class deterministically (fixed seed /
targeted operating point) and asserts the matching guard fires: the nan
result guard, the rail hull guard, the propagator-cache finiteness
guard with eviction, and the checkpoint torn-tail recovery.  The
acceptance scenario — a survey under ``GuardPolicy.QUARANTINE`` with an
injected solver NaN at one grid point completes with exactly that point
quarantined and an otherwise identical inventory — lives here too.
"""

import math
import os
import signal

import pytest

from repro import telemetry
from repro.circuit import network
from repro.circuit.column import DRAMColumn
from repro.circuit.defects import OpenDefect, OpenLocation
from repro.circuit.network import (
    GuardPolicy,
    solver_guards_configure,
    solver_guards_info,
)
from repro.core.analysis import ColumnFaultAnalyzer, SweepGrid
from repro.errors import InjectionError, SolverDivergenceError
from repro.inject import (
    CheckpointTailTruncator,
    JournalTailTruncator,
    ProcessKiller,
    PropagatorCacheCorruptor,
    SolverNaNInjector,
    StoreCorruptor,
    VoltagePerturbationInjector,
    run_injection_campaign,
)
from repro.io import CheckpointStore


@pytest.fixture(autouse=True)
def _pristine_guards_and_hooks():
    """Every test starts and ends with default guards, no hook, cold cache."""
    network._install_solver_fault_hook(None)
    solver_guards_configure(
        nan_checks=True, policy=GuardPolicy.RAISE, condition_checks=False
    )
    network.Network.cache_clear()
    telemetry.reset()
    telemetry.enable()
    yield
    telemetry.disable()
    network._install_solver_fault_hook(None)
    solver_guards_configure(
        nan_checks=True, policy=GuardPolicy.RAISE, condition_checks=False
    )
    network.Network.cache_clear()


def _counter(name):
    return telemetry.get_metrics().counter_value(name)


def _column():
    return DRAMColumn(defect=OpenDefect(OpenLocation.CELL, 1e5))


def _write_then_read(column):
    column.write(0, 1)
    return column.read(0)


GRID = SweepGrid.make(r_min=1e4, r_max=1e6, n_r=3, n_u=3)


def _survey(guard_policy=None):
    analyzer = ColumnFaultAnalyzer(
        OpenLocation.CELL, grid=GRID, guard_policy=guard_policy
    )
    findings = [
        (f.ffm, f.probe_sos.to_string(), f.floating) for f in analyzer.survey()
    ]
    return findings, analyzer


class TestSolverNaNInjector:
    def test_needs_a_trigger(self):
        with pytest.raises(InjectionError):
            SolverNaNInjector()

    def test_raise_policy_detects_the_nan(self):
        with SolverNaNInjector(at_solve=1) as injector:
            with pytest.raises(SolverDivergenceError) as exc_info:
                _write_then_read(_column())
        assert injector.fires == 1
        assert exc_info.value.guard == "nan"
        # The guard names the simulation phase it tripped in.
        assert "phase" in exc_info.value.context
        assert _counter("solver.guard_nan") == 1
        assert _counter("solver.guard_trips") == 1

    def test_targeted_quarantine_matches_clean_inventory(self):
        # The acceptance scenario: inject a NaN at exactly one grid
        # point; under QUARANTINE the survey completes, reports exactly
        # that point, and finds the same inventory as a clean run.
        clean, _ = _survey()
        target = (GRID.r_values[0], GRID.u_values[1])
        network.Network.cache_clear()
        with SolverNaNInjector(target=target):
            injected, analyzer = _survey(guard_policy=GuardPolicy.QUARANTINE)
        assert injected == clean
        points = {(p.r_def, p.u) for p in analyzer.quarantined}
        assert points == {target}
        assert all(p.guard == "nan" for p in analyzer.quarantined)
        assert _counter("analyzer.quarantined_points") == len(
            analyzer.quarantined
        )
        assert _counter("solver.guard_nan") > 0

    def test_batched_solve_quarantines_only_the_hit_lane(self):
        target = (GRID.r_values[1], GRID.u_values[2])
        with SolverNaNInjector(target=target):
            analyzer = ColumnFaultAnalyzer(
                OpenLocation.CELL, grid=GRID,
                guard_policy=GuardPolicy.QUARANTINE,
            )
            analyzer.survey()
        points = {(p.r_def, p.u) for p in analyzer.quarantined}
        assert points == {target}
        # The grid demoted the hit member and re-ran it scalar to isolate
        # the lane.
        assert _counter("analyzer.grid_demotions") > 0


class TestVoltagePerturbationInjector:
    def test_rejects_bad_amplitude(self):
        with pytest.raises(InjectionError):
            VoltagePerturbationInjector(amplitude=0.0)

    def test_large_noise_trips_the_rail_guard(self):
        margin = solver_guards_info().rail_margin
        with VoltagePerturbationInjector(amplitude=40 * margin, seed=7):
            with pytest.raises(SolverDivergenceError) as exc_info:
                _write_then_read(_column())
        assert exc_info.value.guard == "rail"
        assert _counter("solver.guard_rail") >= 1
        assert "overshoot_v" in exc_info.value.context

    def test_small_noise_is_masked(self):
        with VoltagePerturbationInjector(amplitude=1e-9, seed=7) as injector:
            _write_then_read(_column())
        assert injector.fires > 0
        assert _counter("solver.guard_trips") == 0

    def test_transient_fault_recovered_by_fallback(self):
        # FALLBACK recomputes the phase in sub-steps without the hook,
        # so a one-solve transient is absorbed and counted.
        solver_guards_configure(policy=GuardPolicy.FALLBACK)
        margin = solver_guards_info().rail_margin
        with VoltagePerturbationInjector(
            amplitude=40 * margin, seed=7, at_solve=1
        ):
            result = _write_then_read(_column())
        assert result in (0, 1)
        assert _counter("solver.guard_fallbacks") >= 1
        assert _counter("solver.guard_trips") >= 1

    def test_same_seed_same_stream(self):
        captured = []
        for _ in range(2):
            solver_guards_configure(nan_checks=False)
            with VoltagePerturbationInjector(amplitude=0.1, seed=3):
                column = _column()
                column.write(0, 1)
                captured.append(dict(column.net.voltages()))
            solver_guards_configure(nan_checks=True)
            network.Network.cache_clear()
        assert captured[0] == captured[1]


class TestPropagatorCacheCorruptor:
    def test_empty_cache_is_an_injection_error(self):
        with pytest.raises(InjectionError):
            PropagatorCacheCorruptor().arm()

    def test_corrupted_entry_trips_guard_and_is_evicted(self):
        _write_then_read(_column())  # warm the propagator cache
        corruptor = PropagatorCacheCorruptor(seed=1, n_entries=1)
        corruptor.arm()
        assert corruptor.fires == 1
        (key,) = corruptor.corrupted_keys
        assert key in network._PROPAGATORS._data
        with pytest.raises(SolverDivergenceError) as exc_info:
            _write_then_read(_column())
        assert exc_info.value.guard == "nan"
        # _on_trip must have evicted the poisoned propagator...
        assert key not in network._PROPAGATORS._data
        corruptor.disarm()
        # ...so the next run recomputes it and succeeds.
        assert _write_then_read(_column()) in (0, 1)


class TestCheckpointTailTruncator:
    def test_missing_file_is_an_injection_error(self, tmp_path):
        with pytest.raises(InjectionError):
            CheckpointTailTruncator(str(tmp_path / "nope.jsonl")).arm()

    def test_torn_tail_is_skipped_on_resume(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with CheckpointStore(path) as store:
            store.record("alpha", 1)
            store.record("beta", 2)
        truncator = CheckpointTailTruncator(path, seed=11, max_bytes=10)
        truncator.arm()
        assert truncator.fires == 1
        assert 1 <= truncator.bytes_dropped <= 10
        loaded = CheckpointStore(path).load()
        # The torn final record is dropped, never half-parsed; the
        # intact prefix survives.
        assert loaded.get("alpha") == 1
        assert "beta" not in loaded


class TestStoreCorruptor:
    def _store_with_docs(self, tmp_path, n=3):
        from repro.service.store import ResultStore

        store = ResultStore(root=str(tmp_path / "store"))
        for i in range(n):
            store.put(f"addr{i}", {"value": i})
        return store

    def test_flip_is_caught_by_the_digest_check(self, tmp_path):
        store = self._store_with_docs(tmp_path)
        corruptor = StoreCorruptor(store.root, seed=3, n_entries=1)
        corruptor.arm()
        assert corruptor.fires == 1 and len(corruptor.corrupted_paths) == 1
        # A fresh store over the same directory must quarantine the
        # damaged document on rebuild, never serve it.
        from repro.service.store import ResultStore

        reopened = ResultStore(root=store.root)
        assert len(reopened) == 2
        assert reopened.corrupt == 1
        damaged = os.path.basename(corruptor.corrupted_paths[0])
        assert not os.path.exists(
            os.path.join(store.root, damaged)
        )

    def test_truncate_mode_and_determinism(self, tmp_path):
        store = self._store_with_docs(tmp_path)
        first = StoreCorruptor(
            store.root, seed=9, n_entries=2, mode="truncate"
        )
        first.arm()
        assert first.fires == 2
        # Same seed picks the same files.
        second = StoreCorruptor(
            store.root, seed=9, n_entries=2, mode="truncate"
        )
        second.arm()
        assert [os.path.basename(p) for p in first.corrupted_paths] == [
            os.path.basename(p) for p in second.corrupted_paths
        ]

    def test_empty_store_is_an_injection_error(self, tmp_path):
        os.makedirs(str(tmp_path / "empty"))
        with pytest.raises(InjectionError):
            StoreCorruptor(str(tmp_path / "empty")).arm()

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(InjectionError):
            StoreCorruptor(str(tmp_path), mode="shred")


class TestJournalTailTruncator:
    def test_replay_skips_the_torn_record(self, tmp_path):
        from repro.service.journal import JobJournal

        path = str(tmp_path / "jobs.journal")
        with JobJournal(path) as journal:
            journal.submit("j1", "addr1", {"experiment": "x"})
            journal.submit("j2", "addr2", {"experiment": "x"})
        truncator = JournalTailTruncator(path, seed=11, max_bytes=10)
        truncator.arm()
        assert truncator.name == "journal-truncation"
        replayed = JobJournal(path)
        assert [e.job for e in replayed.replay()] == ["j1"]
        assert replayed.stats.torn == 1


class TestProcessKiller:
    def test_refuses_init_and_self(self):
        with pytest.raises(InjectionError):
            ProcessKiller(1)
        with pytest.raises(InjectionError):
            ProcessKiller(os.getpid())

    def test_kills_a_child_process(self):
        import subprocess
        import sys

        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        try:
            killer = ProcessKiller(child.pid)
            killer.arm()
            assert killer.fires == 1
            assert child.wait(timeout=10) == -signal.SIGKILL
        finally:
            if child.poll() is None:
                child.kill()

    def test_unknown_pid_is_an_injection_error(self):
        import subprocess
        import sys

        # A pid that existed but is gone by the time we signal it.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=10)
        with pytest.raises(InjectionError):
            ProcessKiller(child.pid).arm()


class TestHookExclusivity:
    def test_arming_over_an_armed_hook_raises(self):
        with SolverNaNInjector(at_solve=1):
            with pytest.raises(InjectionError):
                VoltagePerturbationInjector(amplitude=1.0).arm()


class TestCampaign:
    def test_verdicts_cover_the_guard_matrix(self):
        margin = solver_guards_info().rail_margin
        injectors = [
            SolverNaNInjector(at_solve=10 ** 9),                 # dormant
            VoltagePerturbationInjector(amplitude=1e-9, seed=1),  # masked
            VoltagePerturbationInjector(amplitude=40 * margin, seed=1),
            SolverNaNInjector(at_solve=1),                        # detected
        ]
        report = run_injection_campaign(injectors, lambda: _write_then_read(_column()))
        verdicts = [result.verdict for result in report.results]
        assert verdicts == ["dormant", "masked", "detected", "detected"]
        nan_run = report.results[3]
        assert nan_run.error == "SolverDivergenceError"
        assert nan_run.counters.get("solver.guard_nan", 0) >= 1
        assert not report.all_guarded or all(
            v in ("contained", "detected") for v in verdicts[2:]
        )
        rendered = report.render()
        assert "[injection campaign]" in rendered
        assert "detected" in rendered

    def test_quarantine_contains_the_fault(self):
        solver_guards_configure(policy=GuardPolicy.QUARANTINE)
        target = (GRID.r_values[0], GRID.u_values[0])

        def workload():
            findings, analyzer = _survey(GuardPolicy.QUARANTINE)
            return findings

        report = run_injection_campaign([SolverNaNInjector(target=target)], workload)
        (result,) = report.results
        assert result.verdict == "contained"
        assert result.error is None
        assert result.counters.get("analyzer.quarantined_points", 0) >= 1
        assert report.all_guarded

    def test_campaign_is_deterministic(self):
        def build():
            return [
                VoltagePerturbationInjector(amplitude=1e-9, seed=5),
                SolverNaNInjector(at_solve=2),
            ]

        def run_once():
            network.Network.cache_clear()
            report = run_injection_campaign(build(), lambda: _write_then_read(_column()))
            return [
                (r.injector, r.fired, r.verdict, r.error)
                for r in report.results
            ]

        assert run_once() == run_once()

    def test_expectation_check_flags_silent_corruption(self):
        # Disable the guards entirely: a fired fault that skews the read
        # result with no guard to catch it must classify as escaped.
        solver_guards_configure(nan_checks=False)
        margin = solver_guards_info().rail_margin
        report = run_injection_campaign(
            [VoltagePerturbationInjector(amplitude=40 * margin, seed=7)],
            lambda: _write_then_read(_column()),
            expect=lambda value: value == 1,
        )
        (result,) = report.results
        assert result.verdict in ("escaped", "masked")
        if result.verdict == "escaped":
            assert "expectation" in result.detail
